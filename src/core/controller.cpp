#include "core/controller.hpp"

#include <algorithm>
#include <cassert>

#include "obs/audit.hpp"
#include "obs/trace.hpp"

namespace svk::core {
namespace {

/// Self-overload hysteresis: overload starts when the required stateful
/// rate exceeds kOverloadHeadroom * budget and clears below
/// kRecoverFactor * budget.
constexpr double kOverloadHeadroom = 1.02;
constexpr double kRecoverFactor = 0.85;

}  // namespace

ControllerConfig ControllerConfig::from_call_rates(double t_sf_cps,
                                                   double t_sl_cps,
                                                   SimTime period) {
  ControllerConfig config;
  config.t_sf = t_sf_cps * kRequestsPerCall;
  config.t_sl = t_sl_cps * kRequestsPerCall;
  config.period = period;
  return config;
}

Controller::Controller(ControllerConfig config)
    : config_(config),
      alpha_(1.0 / config.t_sf),
      beta_(1.0 / config.t_sl) {
  assert(config.t_sl > config.t_sf && config.t_sf > 0.0);
}

void Controller::register_paths(const std::vector<proxy::PathInfo>& paths) {
  paths_.clear();
  paths_.reserve(paths.size());
  for (const auto& info : paths) {
    PathState state;
    state.delegable = info.delegable;
    state.seen = true;
    paths_.push_back(state);
  }
}

PathState& Controller::path_at(std::size_t index, bool delegable) {
  // Paths can appear after registration (route-set forwarding to a neighbor
  // not in the static table); grow defensively. Entries created as filler
  // for indices we have not actually observed stay `seen = false` and adopt
  // their true delegability on first contact — resize() alone used to
  // default *intermediate* entries to non-delegable forever.
  if (index >= paths_.size()) {
    paths_.resize(index + 1);
  }
  PathState& path = paths_[index];
  if (!path.seen) {
    path.seen = true;
    path.delegable = delegable;
  }
  return path;
}

proxy::StateDecision Controller::decide(const proxy::RequestContext& ctx) {
  PathState& path = path_at(ctx.path_index, ctx.delegable);
  ++path.msg_count;
  ++tot_msg_;

  // Algorithm 1: already-stateful traffic is always forwarded statelessly.
  if (ctx.already_stateful) {
    ++path.fasf_count;
    return proxy::StateDecision::kStateless;
  }
  // Exit paths cannot delegate: this node is the last chance to be
  // stateful, so it always takes the state (CPU admission is the final
  // backstop when that is infeasible).
  if (!path.delegable) {
    ++path.sf_count;
    ++tot_sf_;
    return proxy::StateDecision::kStateful;
  }
  // Delegable path: take state for sf_fraction of the not-yet-stateful
  // requests (error diffusion keeps the realized ratio exact and evenly
  // interleaved), delegating the remainder downstream unmarked. The
  // window-count cap is kept as a guard against rate overshoots.
  if (path.sf_fraction >= 1.0) {
    ++path.sf_count;
    ++tot_sf_;
    return proxy::StateDecision::kStateful;
  }
  path.sf_accumulator += path.sf_fraction;
  // The 1.5x window-count guard only trips on large rate overshoots; the
  // fraction is what realizes the share in steady state.
  if (path.sf_accumulator >= 1.0 &&
      static_cast<double>(path.sf_count) <= 1.5 * path.myshare) {
    path.sf_accumulator -= 1.0;
    ++path.sf_count;
    ++tot_sf_;
    return proxy::StateDecision::kStateful;
  }
  return proxy::StateDecision::kStateless;
}

void Controller::on_overload_signal(std::size_t path_index, bool on,
                                    double c_asf_rate) {
  // Overload signals come from downstream proxies, so the signalling path
  // is delegable by definition.
  PathState& path = path_at(path_index, /*delegable=*/true);
  path.overloaded = on;
  path.frozen_c_asf = on ? c_asf_rate : 0.0;
  // Any signal (on, refresh, or off) proves the downstream is alive and
  // restarts the staleness/probe clocks.
  path.windows_since_signal = 0;
  path.probe_backoff = 0;
  path.windows_until_probe = 0;
  if (obs != nullptr && obs->tracer != nullptr) {
    obs->tracer->instant(on ? "overload_rx_on" : "overload_rx_off",
                         "overload", last_tick_, obs_tid, "path",
                         static_cast<double>(path_index), "c_asf",
                         c_asf_rate);
  }
}

void Controller::age_overload_state(SimTime now) {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    PathState& path = paths_[i];
    if (!path.delegable || !path.overloaded) continue;
    ++path.windows_since_signal;
    if (config_.overload_stale_windows > 0 &&
        path.windows_since_signal >= config_.overload_stale_windows) {
      // No refresh for too long: the neighbor crashed, was partitioned
      // away, or its "off" was lost. Drop the frozen allowance so myshare
      // is recomputed from live measurements instead of wedging forever.
      path.overloaded = false;
      path.frozen_c_asf = 0.0;
      path.smoothed_share = -1.0;
      path.windows_since_signal = 0;
      path.probe_backoff = 0;
      path.windows_until_probe = 0;
      ++stale_releases_;
      if (obs != nullptr && obs->tracer != nullptr) {
        obs->tracer->instant("overload_stale_release", "overload", now,
                             obs_tid, "path", static_cast<double>(i));
      }
      continue;
    }
    if (config_.probe_after_windows == 0 ||
        path.windows_since_signal < config_.probe_after_windows) {
      continue;
    }
    if (path.windows_until_probe > 0) {
      --path.windows_until_probe;
      continue;
    }
    // Probe now, then back off exponentially (1, 2, 4, ... windows): a
    // live-but-quiet neighbor answers the first probe, a dead one should
    // not be hammered until the staleness timeout reaps it.
    path.probe_backoff =
        path.probe_backoff == 0 ? 1 : std::min(path.probe_backoff * 2, 8u);
    path.windows_until_probe = path.probe_backoff;
    ++probes_requested_;
    if (obs != nullptr && obs->tracer != nullptr) {
      obs->tracer->instant("overload_probe_tx", "overload", now, obs_tid,
                           "path", static_cast<double>(i));
    }
    if (send_probe) send_probe(i);
  }
}

void Controller::on_tick(SimTime now) {
  if (!first_tick_done_) {
    // First tick: adopt the window and start measuring from here.
    first_tick_done_ = true;
    last_tick_ = now;
    reset_window_counters();
    return;
  }
  const double elapsed = (now - last_tick_).to_seconds();
  last_tick_ = now;
  if (elapsed <= 0.0) return;

  // Lost-signal tolerance first: frozen paths whose advertisements went
  // silent are probed and eventually released, so the share computation
  // below never runs against permanently stale allowances.
  age_overload_state(now);

  const double total_rate = static_cast<double>(tot_msg_) / elapsed;
  last_total_rate_ = total_rate;

  // Feasible aggregate stateful rate at the current load (Eq. 6/8),
  // against the configured utilization ceiling.
  const double u = config_.target_utilization;
  const double inv_ab = 1.0 / (alpha_ - beta_);
  const double budget_rate =
      std::max(0.0, (u - beta_ * total_rate) * inv_ab);
  last_budget_rate_ = budget_rate;

  if (total_rate <= config_.t_sf) {
    // Eq. 8 case 1: everything not yet stateful can be handled statefully.
    for (PathState& path : paths_) {
      path.myshare = std::numeric_limits<double>::infinity();
      path.sf_fraction = 1.0;
      path.smoothed_share = -1.0;
    }
    // The closed-loop correction must relax while the node is cool: an
    // overload episode backs it off multiplicatively, and below T_SF the
    // case-2 feedback branch never runs, so without this a node that cooled
    // down re-entered case 2 with the stale multiplier and under-took
    // state indefinitely. Below T_SF the CPU is under its target by
    // construction, so halve the gap to 1.0 each quiet window.
    correction_ += 0.5 * (1.0 - correction_);
    if (correction_ > 0.995) correction_ = 1.0;
    bool overload_changed = false;
    if (self_overloaded_) {
      self_overloaded_ = false;
      overload_changed = true;
      if (send_overload) send_overload(false, 0.0);
    }
    emit_audit(now, elapsed, /*below_t_sf=*/true, overload_changed);
    reset_window_counters();
    return;
  }

  // Closed-loop drift correction (see ControllerConfig): back the share
  // off while the CPU runs at/above target or builds a queue, recover
  // slowly once it cools down.
  if (config_.utilization_feedback && observed_utilization >= 0.0) {
    if (observed_backlog_fraction > 0.3 ||
        observed_utilization > config_.target_utilization) {
      correction_ = std::max(0.02, correction_ * 0.85);
    } else if (observed_utilization < config_.target_utilization - 0.03) {
      correction_ = std::min(1.0, correction_ + 0.05);
    }
  }

  // Eq. 8 case 2 / Algorithm 2: split the budget across paths.
  //
  // Fixed commitments first: exit paths must absorb all their
  // not-yet-stateful traffic; overloaded paths force us to absorb whatever
  // exceeds the frozen downstream allowance c_ASF.
  //
  // Window counts (`myshare`) are sized with the *measured* elapsed time,
  // not the configured period: the per-path rates are measured over
  // `elapsed`, and mixing time bases mis-sized the window-count guard in
  // decide() whenever a tick arrived late or early.
  double required_rate = 0.0;  // stateful work we cannot avoid
  double c_rate = u * inv_ab;  // Algorithm 2's constant `c` (per second)
  std::size_t not_ovld_count = 0;
  for (PathState& path : paths_) {
    const double rate = static_cast<double>(path.msg_count) / elapsed;
    const double fasf_rate = static_cast<double>(path.fasf_count) / elapsed;
    if (!path.delegable) {
      // Exit flow t_iz: contributes -alpha*t_z/(alpha-beta) + fasf_z to c.
      c_rate += fasf_rate - alpha_ * rate * inv_ab;
      required_rate += std::max(0.0, rate - fasf_rate);
      path.myshare = std::numeric_limits<double>::infinity();
    } else if (path.overloaded) {
      c_rate += path.frozen_c_asf + fasf_rate - alpha_ * rate * inv_ab;
      const double forced =
          std::max(0.0, rate - path.frozen_c_asf - fasf_rate);
      required_rate += forced;
      // Handle exactly the overflow statefully; the rest rides the frozen
      // downstream allowance.
      path.myshare = forced * elapsed;
      path.smoothed_share = -1.0;
      const double nasf_rate = std::max(rate - fasf_rate, 1e-9);
      path.sf_fraction = std::min(1.0, forced / nasf_rate);
    } else {
      ++not_ovld_count;
    }
  }

  if (not_ovld_count > 0) {
    for (PathState& path : paths_) {
      if (!path.delegable || path.overloaded) continue;
      const double rate = static_cast<double>(path.msg_count) / elapsed;
      const double raw_share =
          std::max(0.0, c_rate / static_cast<double>(not_ovld_count) -
                            beta_ * rate * inv_ab);
      if (path.smoothed_share < 0.0) {
        path.smoothed_share = raw_share;
      } else {
        const double g = config_.share_smoothing_gain;
        path.smoothed_share = (1.0 - g) * path.smoothed_share + g * raw_share;
      }
      const double share_rate = path.smoothed_share * correction_;
      path.myshare = share_rate * elapsed;
      const double fasf_rate =
          static_cast<double>(path.fasf_count) / elapsed;
      const double nasf_rate = std::max(rate - fasf_rate, 1e-9);
      path.sf_fraction = std::min(1.0, share_rate / nasf_rate);
    }
  }

  // Self-overload detection (Algorithm 2's upstream signal): the stateful
  // work this node cannot shed exceeds its feasible budget.
  const bool overloaded_now =
      not_ovld_count == 0 && required_rate > budget_rate * kOverloadHeadroom;
  bool overload_changed = false;
  // The advertised rate is what the subtree rooted here keeps absorbing:
  // our own feasible budget plus everything frozen further downstream.
  const auto advertised_c_asf = [&] {
    double c_asf = budget_rate;
    for (const PathState& path : paths_) {
      if (path.delegable && path.overloaded) c_asf += path.frozen_c_asf;
    }
    return c_asf;
  };
  if (overloaded_now && !self_overloaded_) {
    self_overloaded_ = true;
    overload_changed = true;
    windows_since_advert_ = 0;
    if (send_overload) send_overload(true, advertised_c_asf());
  } else if (self_overloaded_ && required_rate < budget_rate * kRecoverFactor) {
    self_overloaded_ = false;
    overload_changed = true;
    if (send_overload) send_overload(false, 0.0);
  } else if (self_overloaded_ && config_.readvertise_period_windows > 0 &&
             ++windows_since_advert_ >= config_.readvertise_period_windows) {
    // Periodic refresh while frozen: repairs an upstream that missed the
    // original "on" and keeps the advertised c_ASF current as downstream
    // conditions move.
    windows_since_advert_ = 0;
    if (send_overload) send_overload(true, advertised_c_asf());
  }

  emit_audit(now, elapsed, /*below_t_sf=*/false, overload_changed);
  reset_window_counters();
}

void Controller::emit_audit(SimTime now, double elapsed, bool below_t_sf,
                            bool overload_changed) {
  if (obs == nullptr) return;
  if (obs->tracer != nullptr) {
    obs->tracer->instant("window_tick", "controller", now, obs_tid,
                         "total_rate", last_total_rate_, "budget_rate",
                         last_budget_rate_);
    if (overload_changed) {
      obs->tracer->instant(self_overloaded_ ? "overload_on" : "overload_off",
                           "overload", now, obs_tid, "required_vs_budget",
                           last_budget_rate_);
    }
  }
  if (obs->audit == nullptr) return;
  obs::AuditWindow window;
  window.node_tid = obs_tid;
  window.at = now;
  window.elapsed = elapsed;
  window.total_rate = last_total_rate_;
  window.budget_rate = last_budget_rate_;
  window.correction = correction_;
  window.below_t_sf = below_t_sf;
  window.self_overloaded = self_overloaded_;
  window.overload_changed = overload_changed;
  window.paths.reserve(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const PathState& path = paths_[i];
    obs::AuditPathRow row;
    row.path_index = i;
    row.delegable = path.delegable;
    row.overloaded = path.overloaded;
    row.msg_count = path.msg_count;
    row.fasf_count = path.fasf_count;
    row.sf_count = path.sf_count;
    row.myshare = path.myshare;
    row.sf_fraction = path.sf_fraction;
    row.smoothed_share = path.smoothed_share;
    row.frozen_c_asf = path.frozen_c_asf;
    window.paths.push_back(row);
  }
  obs->audit->append(std::move(window));
}

void Controller::reset_window_counters() {
  for (PathState& path : paths_) {
    path.msg_count = 0;
    path.fasf_count = 0;
    path.sf_count = 0;
  }
  tot_msg_ = 0;
  tot_sf_ = 0;
}

}  // namespace svk::core

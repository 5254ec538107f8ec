#include "proxy/proxy.hpp"

#include <cassert>
#include <charconv>
#include <utility>

#include "common/logging.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace svk::proxy {
namespace {

using profile::CostVector;
using profile::CpuCostModel;
using profile::HandlingMode;
using profile::MsgKind;

bool is_transaction_creating(const sip::Message& msg) {
  return msg.is_request() && msg.method() != sip::Method::kAck;
}

/// Header names the proxy writes per call, interned once per process.
struct HeaderNames {
  sip::Token stateful_mark{kStatefulMarkHeader};
  sip::Token stateful_at{"X-Stateful-At"};
  sip::Token retry_after{"Retry-After"};
};

const HeaderNames& header_names() {
  static const HeaderNames names;
  return names;
}

}  // namespace

ProxyServer::ProxyServer(sim::Simulator& sim, SipNetwork& network,
                         const HostRegistry& registry,
                         std::shared_ptr<LocationService> location,
                         RouteTable routes,
                         std::unique_ptr<StatePolicy> policy,
                         ProxyConfig config)
    : sim_(sim),
      network_(network),
      registry_(registry),
      location_(std::move(location)),
      routes_(std::move(routes)),
      policy_(std::move(policy)),
      config_(std::move(config)),
      host_token_(config_.host),
      cpu_(sim, sim::CpuQueueConfig{config_.cpu_capacity,
                                    config_.max_queue_delay}),
      txns_(sim, config_.timers),
      auth_(config_.auth_realm.empty() ? config_.host : config_.auth_realm,
            config_.auth_nonce.empty() ? "nonce-" + config_.host
                                       : config_.auth_nonce),
      branches_(config_.address.value()),
      dialogs_live_gauge_("dialogs_live." + config_.host) {
  assert(policy_ != nullptr);
  policy_->register_paths(routes_.paths());
  policy_->send_overload = [this](bool on, double rate) {
    send_overload_signal(on, rate);
  };
  policy_->send_probe = [this](std::size_t path_index) {
    send_overload_probe(path_index);
  };
  // Observability: the simulator's Sinks struct has a stable address, so
  // wiring it here also covers enablement after construction.
  policy_->obs = &sim_.obs();
  policy_->obs_tid = config_.address.value();
  cpu_.set_trace_tid(config_.address.value());
  txns_.set_trace_tid(config_.address.value());
  if (policy_->tick_period() > SimTime{}) {
    tick_probe_ = std::make_unique<sim::UtilizationProbe>(cpu_, sim_);
    policy_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, policy_->tick_period(), [this] {
          policy_->observed_utilization = tick_probe_->utilization();
          tick_probe_->restart();
          const double bound = config_.max_queue_delay.to_seconds();
          policy_->observed_backlog_fraction =
              bound > 0.0 ? cpu_.backlog().to_seconds() / bound : 0.0;
          const obs::Sinks& obs = sim_.obs();
          if (obs.tracer != nullptr) {
            obs.tracer->counter("utilization", sim_.now(),
                                config_.address.value(), "util",
                                policy_->observed_utilization);
            obs.tracer->counter("backlog", sim_.now(),
                                config_.address.value(), "fraction",
                                policy_->observed_backlog_fraction);
          }
          policy_->on_tick(sim_.now());
        });
    policy_timer_->start();
  }
  const bool dialog_mode =
      config_.stateful_mode == HandlingMode::kDialogStateful ||
      config_.stateful_mode == HandlingMode::kDialogStatefulAuth;
  if (dialog_mode && config_.dialog_ttl > SimTime{}) {
    // Reap early dialogs nothing will ever confirm (lost finals, crashed
    // endpoints). Sweeping at ttl/2 bounds residency at 1.5*ttl.
    dialog_sweep_ = std::make_unique<sim::PeriodicTimer>(
        sim_, SimTime::nanos(config_.dialog_ttl.ns() / 2), [this] {
          stats_.dialogs_expired +=
              dialogs_.expire_early(sim_.now(), config_.dialog_ttl);
          dialogs_live_gauge_.set(
              sim_.obs().metrics,
              static_cast<double>(dialogs_.active_count()));
        });
    dialog_sweep_->start();
  }
  overload_ = overload::make_overload_policy(config_.overload,
                                             routes_.paths().size());
  if (overload_ != nullptr) {
    overload_probe_ = std::make_unique<sim::UtilizationProbe>(cpu_, sim_);
    overload_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.overload.control_period, [this] { overload_tick(); });
    overload_timer_->start();
  }
  network_.attach(config_.address,
                  [this](Address from, const sip::MessagePtr& msg) {
                    on_datagram(from, msg);
                  });
}

ProxyServer::~ProxyServer() { network_.detach(config_.address); }

void ProxyServer::set_upstream_proxies(std::vector<Address> upstream) {
  upstream_proxies_ = std::move(upstream);
}

profile::HandlingMode ProxyServer::mode_for(StateDecision decision) const {
  return decision == StateDecision::kStateful ? config_.stateful_mode
                                              : config_.stateless_mode;
}

bool ProxyServer::is_control(const sip::Message& msg) const {
  return msg.is_request() && msg.method() == sip::Method::kOptions &&
         (msg.header(kOverloadHeader).has_value() ||
          msg.header(kOverloadProbeHeader).has_value());
}

void ProxyServer::on_datagram(Address from, const sip::MessagePtr& msg) {
  if (const obs::Sinks& obs = sim_.obs(); obs.any()) {
    rx_counter_.inc(obs.metrics);
    if (obs.tracer != nullptr) {
      obs.tracer->instant("rx", "msg", sim_.now(), config_.address.value(),
                          "from", static_cast<double>(from.value()),
                          "request", msg->is_request() ? 1.0 : 0.0);
    }
  }
  if (msg->is_request()) {
    if (is_control(*msg)) {
      // Control plane: cheap, never rejected (a saturated node must still
      // hear recovery signals).
      const CostVector cost = CpuCostModel::receive_only();
      charge(cost);
      cpu_.submit_urgent(cost.total(),
                         [this, from, msg] { handle_control(from, *msg); });
      return;
    }
    admit_request(from, msg);
  } else {
    admit_response(from, msg);
  }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

void ProxyServer::admit_request(Address from, const sip::MessagePtr& msg) {
  ++stats_.requests_in;

  // Retransmission of a request we hold state for: absorb (the paper's key
  // stateful benefit — the retransmission never propagates downstream).
  if (txns_.find_server(*msg) != nullptr) {
    // Absorbing is cheap and protects downstream: never shed it.
    const CostVector cost = CpuCostModel::absorb_retransmit();
    charge(cost);
    ++stats_.absorbed_retransmits;
    cpu_.submit_urgent(cost.total(), [this, msg] {
      if (auto* txn = txns_.find_server(*msg)) {
        txn->receive_request(msg);
      }
      // If the transaction ended in the queueing gap the retransmission is
      // simply dropped; the far end's timers cover it.
    });
    return;
  }

  if (msg->method() == sip::Method::kCancel) {
    handle_cancel(from, msg);
    return;
  }

  plan_new_request(from, msg);
}

void ProxyServer::plan_new_request(Address from, const sip::MessagePtr& msg) {
  // --- Routing --------------------------------------------------------
  sip::Message fwd = sip::clone(*msg);
  // RFC 3261 16.3 step 4: hop-count exhaustion means the request *arrived*
  // with Max-Forwards 0 — the check precedes the decrement, so a request
  // arriving with 1 is still forwarded (carrying 0).
  int mf_on_arrival = msg->max_forwards();
  if (config_.debug_predecrement_max_forwards) {
    --mf_on_arrival;  // reintroduces the off-by-one for the mutation smoke
  }
  if (mf_on_arrival <= 0) {
    ++stats_.rejected_483;
    respond_urgent(*msg, sip::status::kTooManyHops, from);
    return;
  }
  fwd.decrement_max_forwards();

  // Route-set handling (RFC 3261 16.4): strip our own Route entry, then
  // prefer the remaining route set over request-URI routing.
  if (!fwd.routes().empty() && fwd.routes().front().host() == config_.host) {
    fwd.routes().erase(fwd.routes().begin());
  }

  Address target;
  std::size_t path_index = 0;
  bool delegable = false;
  if (!fwd.routes().empty()) {
    const auto resolved = registry_.resolve(fwd.routes().front().host());
    if (!resolved) {
      ++stats_.route_failures;
      respond_urgent(*msg, sip::status::kNotFound, from);
      return;
    }
    target = *resolved;
    if (const auto path = routes_.path_of(target)) {
      path_index = *path;
      delegable = routes_.paths()[path_index].delegable;
    }
  } else {
    const auto decision = routes_.route(fwd.request_uri());
    if (!decision) {
      ++stats_.route_failures;
      respond_urgent(*msg, sip::status::kNotFound, from);
      return;
    }
    path_index = decision->path_index;
    delegable = !decision->local;
    if (decision->local) {
      if (msg->method() == sip::Method::kRegister) {
        // We are the registrar for this domain.
        handle_register(from, msg);
        return;
      }
      const auto resolved = resolve_local_target(fwd.request_uri());
      if (!resolved) {
        ++stats_.route_failures;
        respond_urgent(*msg, sip::status::kNotFound, from);
        return;
      }
      target = resolved->address;
      if (resolved->retarget) {
        // RFC 3261 16.5: the exit proxy replaces the request-URI with the
        // registered contact.
        fwd.set_request_uri(*resolved->retarget);
      }
    } else {
      target = decision->next_hop;
    }
  }

  // --- State decision -----------------------------------------------------
  const MsgKind kind = profile::classify(*msg);
  if (!is_transaction_creating(*msg)) {
    // ACK travels end-to-end with no transaction; forward statelessly,
    // costed at the policy's static mode when one exists.
    const HandlingMode mode =
        mode_for(policy_->static_decision().value_or(StateDecision::kStateless));
    CostVector cost = CpuCostModel::forward(mode, kind);
    if (config_.stateful_mode == HandlingMode::kDialogStateful ||
        config_.stateful_mode == HandlingMode::kDialogStatefulAuth) {
      (void)dialogs_.match(*msg);  // dialog accounting for in-dialog ACK
    }
    fwd.push_via(sip::Via{sip::Via::udp(), host_token_,
                          sip::stateless_branch(msg->top_via().branch,
                                                config_.host)});
    auto fwd_ptr = std::move(fwd).finish();
    // In-call messages are never shed at admission: dropping an ACK wastes
    // a whole established call (overload control sheds *new* work first).
    charge(cost);
    ++stats_.forwarded_stateless;
    cpu_.submit_urgent(cost.total(), [this, fwd_ptr, target] {
      execute_stateless_forward(fwd_ptr, target);
    });
    return;
  }

  // --- Overload control ---------------------------------------------------
  // The admission gate sheds session-INITIATING work only, before the state
  // decision (a shed INVITE must not pollute the delegation controller's
  // per-path counters).
  if (overload_ != nullptr && msg->method() == sip::Method::kInvite) {
    const overload::AdmitDecision verdict =
        overload_->admit(path_index, sim_.now());
    if (verdict != overload::AdmitDecision::kAdmit) {
      if (verdict == overload::AdmitDecision::kRejectLocal) {
        ++stats_.rejected_503;
      } else {
        ++stats_.throttled_503;
      }
      if (const obs::Sinks& obs = sim_.obs(); obs.any()) {
        rejected_503_counter_.inc(obs.metrics);
        if (obs.tracer != nullptr) {
          obs.tracer->instant(
              "overload_503", "overload", sim_.now(),
              config_.address.value(), "throttled",
              verdict == overload::AdmitDecision::kRejectThrottled ? 1.0
                                                                   : 0.0);
        }
      }
      respond_overload_503(
          *msg, from,
          verdict == overload::AdmitDecision::kRejectLocal);
      return;
    }
  }

  RequestContext ctx;
  ctx.path_index = path_index;
  ctx.delegable = delegable;
  ctx.already_stateful = msg->header(kStatefulMarkHeader).has_value();
  ctx.kind = kind;
  const StateDecision decision = policy_->decide(ctx);

  CostVector cost = CpuCostModel::forward(mode_for(decision), kind);
  const bool stateful = decision == StateDecision::kStateful;
  if (const obs::Sinks& obs = sim_.obs(); obs.any()) {
    (stateful ? decision_stateful_counter_ : decision_stateless_counter_)
        .inc(obs.metrics);
    if (obs.tracer != nullptr) {
      obs.tracer->instant("state_decision", "policy", sim_.now(),
                          config_.address.value(), "stateful",
                          stateful ? 1.0 : 0.0, "path",
                          static_cast<double>(path_index));
    }
  }

  // --- Authentication -----------------------------------------------------
  // With AuthScope::kWhenStateful, verification travels with the state
  // decision: exactly the node accountable for the call checks credentials
  // (already-stateful traffic was verified upstream).
  const bool auth_applies =
      config_.authenticate &&
      (msg->method() == sip::Method::kInvite ||
       msg->method() == sip::Method::kBye) &&
      (config_.auth_scope == ProxyConfig::AuthScope::kAll ||
       (stateful && !ctx.already_stateful));
  if (auth_applies && !auth_.verify(*msg)) {
    ++stats_.auth_failures;
    const int code = msg->header(kProxyAuthorizationHeader)
                         ? sip::status::kForbidden
                         : sip::status::kProxyAuthRequired;
    respond_urgent(*msg, code, from);
    return;
  }
  if (stateful && msg->method() == sip::Method::kInvite) {
    cost += CpuCostModel::generate_100(config_.stateful_mode);
  }

  const bool dialog_mode =
      config_.stateful_mode == HandlingMode::kDialogStateful ||
      config_.stateful_mode == HandlingMode::kDialogStatefulAuth;

  if (stateful) {
    if (ctx.already_stateful) ++stats_.double_stateful;
    fwd.push_via(sip::Via{sip::Via::udp(), host_token_, branches_.next()});
    fwd.set_header(header_names().stateful_mark, config_.host);
    if (dialog_mode) {
      if (msg->method() == sip::Method::kInvite) {
        dialogs_.create_early(fwd, sim_.now());
        fwd.record_routes().insert(fwd.record_routes().begin(),
                                   sip::Uri("", host_token_));
      } else {
        (void)dialogs_.match(*msg);
      }
    }
  } else {
    fwd.push_via(sip::Via{sip::Via::udp(), host_token_,
                          sip::stateless_branch(msg->top_via().branch,
                                                config_.host)});
  }

  auto fwd_ptr = std::move(fwd).finish();
  auto action = [this, from, msg, fwd_ptr, target, stateful] {
    if (stateful) {
      execute_stateful_forward(from, msg, fwd_ptr, target);
    } else {
      execute_stateless_forward(fwd_ptr, target);
    }
  };
  // Overload control sheds session-INITIATING work only: a rejected INVITE
  // costs one failed setup, while shedding an in-dialog BYE would waste an
  // entire established call's worth of completed work. With an overload
  // policy installed the occupancy gate above has already made the shedding
  // decision and replaces the raw queue-delay bound (which only reacts once
  // the backlog — and thus the damage — has fully built up).
  if (msg->method() == sip::Method::kInvite && overload_ == nullptr) {
    if (!cpu_.submit(cost.total(), std::move(action))) {
      ++stats_.rejected_busy;
      rejected_busy_counter_.inc(sim_.obs().metrics);
      respond_urgent(*msg, sip::status::kServerError, from);
      return;
    }
  } else {
    cpu_.submit_urgent(cost.total(), std::move(action));
  }
  charge(cost);
  if (stateful) {
    ++stats_.forwarded_stateful;
  } else {
    ++stats_.forwarded_stateless;
  }
}

void ProxyServer::execute_stateful_forward(Address from, sip::MessagePtr msg,
                                           sip::MessagePtr fwd,
                                           Address target) {
  // A retransmission may have raced us through admission before the server
  // transaction existed; if one exists now, absorb instead of duplicating.
  if (auto* existing = txns_.find_server(*msg)) {
    existing->receive_request(msg);
    ++stats_.absorbed_retransmits;
    return;
  }

  txn::ServerCallbacks server_callbacks;
  if (msg->method() == sip::Method::kInvite) {
    // The relay's key is the upstream INVITE's server-transaction key; the
    // INVITE itself rides in the value, so removal and CANCEL lookup
    // compare against it instead of an owning key copy.
    const sip::TxnProbe probe = sip::key_for_request(*msg);
    invite_relays_.insert(probe.hash, InviteRelay{msg, fwd, target});
    server_callbacks.on_terminated = [this, hash = probe.hash, msg] {
      invite_relays_.erase(
          hash, [&](const InviteRelay& r) { return r.invite == msg; });
    };
  }
  txn::TxnHandle server_handle;
  auto& server_txn = txns_.create_server(
      msg, sender_to(from), std::move(server_callbacks), &server_handle);

  if (msg->method() == sip::Method::kInvite) {
    auto trying = sip::Message::response(*msg, sip::status::kTrying);
    trying.set_header(header_names().stateful_at, config_.host);
    stamp_oc(trying);
    server_txn.respond(std::move(trying).finish());
    ++stats_.generated_100;
  }

  const bool dialog_mode =
      config_.stateful_mode == HandlingMode::kDialogStateful ||
      config_.stateful_mode == HandlingMode::kDialogStatefulAuth;

  txn::ClientCallbacks callbacks;
  callbacks.on_response = [this, server_handle, dialog_mode](
                              const sip::MessagePtr& response) {
    sip::Message up = sip::clone(*response);
    if (up.vias().empty() || up.top_via().sent_by != host_token_) {
      return;  // malformed; drop
    }
    up.pop_via();
    if (dialog_mode && sip::is_success(response->status_code())) {
      if (response->cseq().method == sip::Method::kInvite) {
        dialogs_.confirm(*response);
      } else if (response->cseq().method == sip::Method::kBye) {
        dialogs_.terminate(dialog::DialogProbe::make(
            response->call_id(), response->from().tag, response->to().tag));
      }
    } else if (dialog_mode && sip::is_final(response->status_code()) &&
               response->cseq().method == sip::Method::kInvite) {
      // The INVITE failed: its early dialog will never confirm and must
      // not linger in the table (PR7 leak fix).
      if (dialogs_.abandon_early(*response)) ++stats_.dialogs_abandoned;
    }
    stamp_oc(up);
    auto up_ptr = std::move(up).finish();
    if (auto* srv = txns_.find_server(server_handle)) {
      srv->respond(up_ptr);
    } else {
      forward_response_stateless(up_ptr);
    }
    ++stats_.responses_forwarded;
  };
  callbacks.on_timeout = [this, server_handle, msg, dialog_mode] {
    ++stats_.proxy_timeouts;
    if (dialog_mode && msg->method() == sip::Method::kInvite) {
      // Downstream never answered: the early dialog is dead.
      if (dialogs_.abandon_early(*msg)) ++stats_.dialogs_abandoned;
    }
    if (auto* srv = txns_.find_server(server_handle)) {
      sip::Message timeout =
          sip::Message::response(*msg, sip::status::kRequestTimeout);
      stamp_oc(timeout);
      srv->respond(std::move(timeout).finish());
    }
  };

  txns_.create_client(fwd, sender_to(target), std::move(callbacks));
}

void ProxyServer::execute_stateless_forward(sip::MessagePtr msg,
                                            Address target) {
  send_charged(target, msg);
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void ProxyServer::admit_response(Address from, const sip::MessagePtr& msg) {
  ++stats_.responses_in;

  // Hop-by-hop overload feedback rides the response path: the downstream
  // neighbor stamps its permitted rate as `oc` on *our* Via before sending
  // the response up, so the param is read here — off our own top Via, keyed
  // by the path the sender terminates.
  if (overload_ != nullptr && !msg->vias().empty() &&
      msg->top_via().sent_by == host_token_) {
    if (const auto path = routes_.path_of(from)) {
      if (msg->top_via().oc_rate >= 0.0) {
        ++stats_.oc_advertisements;
        overload_->on_rate_advertisement(*path, msg->top_via().oc_rate,
                                         sim_.now());
      } else if (msg->status_code() == sip::status::kServiceUnavailable) {
        // A bare 503 from a hop that advertises no rate (e.g. a legacy
        // neighbor) is still an overload hint. With an advert present the
        // rate update above already carries the signal — no double penalty.
        ++stats_.downstream_503;
        overload_->on_downstream_503(*path, sim_.now());
      }
    }
  }
  const bool matched = txns_.find_client(*msg) != nullptr;
  const HandlingMode mode =
      matched
          ? config_.stateful_mode
          : mode_for(policy_->static_decision().value_or(
                StateDecision::kStateless));
  const CostVector cost = CpuCostModel::forward(mode, profile::classify(*msg));

  charge(cost);
  cpu_.submit_urgent(cost.total(), [this, msg] {
    if (auto* client = txns_.find_client(*msg)) {
      client->receive_response(msg);
      return;
    }
    // No transaction here (we were stateless for it, or it is a
    // retransmitted 2xx after the transaction ended): relay by Via.
    const bool dialog_mode =
        config_.stateful_mode == HandlingMode::kDialogStateful ||
        config_.stateful_mode == HandlingMode::kDialogStatefulAuth;
    if (dialog_mode && sip::is_success(msg->status_code())) {
      if (msg->cseq().method == sip::Method::kInvite) {
        dialogs_.confirm(*msg);
      } else if (msg->cseq().method == sip::Method::kBye) {
        dialogs_.terminate(dialog::DialogProbe::make(
            msg->call_id(), msg->from().tag, msg->to().tag));
      }
    } else if (dialog_mode && sip::is_final(msg->status_code()) &&
               msg->cseq().method == sip::Method::kInvite) {
      if (dialogs_.abandon_early(*msg)) ++stats_.dialogs_abandoned;
    }
    sip::Message up = sip::clone(*msg);
    if (up.vias().empty() || up.top_via().sent_by != host_token_) {
      return;  // not ours; drop
    }
    up.pop_via();
    stamp_oc(up);
    forward_response_stateless(std::move(up).finish());
    ++stats_.responses_forwarded;
  });
}

void ProxyServer::forward_response_stateless(const sip::MessagePtr& msg) {
  if (msg->vias().empty()) return;
  const auto target = registry_.resolve(msg->top_via().sent_by);
  if (!target) return;
  send_charged(*target, msg);
}

// ---------------------------------------------------------------------------
// Local generation, control plane, helpers
// ---------------------------------------------------------------------------

void ProxyServer::respond_urgent(const sip::Message& req, int code,
                                 Address to) {
  if (req.method() == sip::Method::kAck) return;  // never respond to ACK
  const CostVector cost = CpuCostModel::generate_error();
  charge(cost);
  sip::Message response = sip::Message::response(req, code);
  stamp_oc(response);
  auto ptr = std::move(response).finish();
  cpu_.submit_urgent(cost.total(),
                     [this, ptr, to] { send_charged(to, ptr); });
}

void ProxyServer::respond_overload_503(const sip::Message& req, Address to,
                                       bool with_retry_after) {
  if (req.method() == sip::Method::kAck) return;
  const CostVector cost = CpuCostModel::generate_error();
  charge(cost);
  sip::Message response =
      sip::Message::response(req, sip::status::kServiceUnavailable);
  // Retry-After is integer delta-seconds (RFC 3261 20.33). Only the local
  // gate's 503s carry it: a locally overloaded node needs the source to
  // back off wholesale. Throttled rejections (shed on a neighbor's behalf)
  // deliberately omit it — the token bucket already meters the flow to the
  // advertised rate, and stacking an on/off generator pause on top of rate
  // control re-creates the oscillation RFC 7339 exists to avoid.
  if (with_retry_after) {
    response.set_header(
        header_names().retry_after,
        std::to_string(
            static_cast<int>(config_.overload.retry_after_s + 0.5)));
  }
  stamp_oc(response);
  auto ptr = std::move(response).finish();
  cpu_.submit_urgent(cost.total(),
                     [this, ptr, to] { send_charged(to, ptr); });
}

void ProxyServer::stamp_oc(sip::Message& response) const {
  if (overload_ == nullptr || response.vias().empty()) return;
  const double rate = overload_->advertised_rate();
  if (rate >= 0.0) response.top_via().oc_rate = rate;
}

void ProxyServer::overload_tick() {
  // Occupancy = mean utilization over the period plus the backlog's growth
  // normalized to the period. Utilization alone pins at 1.0 under overload
  // (no control error left to regulate on); the backlog term keeps the
  // signal proportional when the queue is building, which both the shed
  // fraction and the advertised rate divide by.
  const double period_s = config_.overload.control_period.to_seconds();
  const double util = overload_probe_->utilization();
  overload_probe_->restart();
  const double backlog_growth =
      period_s > 0.0 ? cpu_.backlog().to_seconds() / period_s : 0.0;
  overload_->on_occupancy_sample(util + backlog_growth, sim_.now());

  const overload::OverloadStats& ostats = overload_->stats();
  const obs::Sinks& obs = sim_.obs();
  if (obs.tracer != nullptr) {
    obs.tracer->counter("occupancy", sim_.now(), config_.address.value(),
                        "occ", ostats.smoothed_occupancy);
    obs.tracer->counter("advertised_rate", sim_.now(),
                        config_.address.value(), "cps",
                        overload_->advertised_rate());
  }
  if (obs.overload_audit != nullptr) {
    obs::OverloadAuditRecord record;
    record.node_tid = config_.address.value();
    record.at = sim_.now();
    record.occupancy = ostats.smoothed_occupancy;
    record.advertised_rate = overload_->advertised_rate();
    record.local_rejects = ostats.local_rejects;
    record.throttled_rejects = ostats.throttled_rejects;
    obs.overload_audit->append(record);
  }
}

void ProxyServer::handle_cancel(Address from, const sip::MessagePtr& msg) {
  const CostVector cost =
      CpuCostModel::forward(config_.stateless_mode, MsgKind::kOther);
  charge(cost);
  cpu_.submit_urgent(cost.total(), [this, from, msg] {
    if (auto* existing = txns_.find_server(*msg)) {
      existing->receive_request(msg);
      return;
    }
    // RFC 3261 16.3 step 4 applies to CANCEL like any other request: an
    // exhausted hop count is answered 483 — never silently dropped, the
    // canceller's transaction must complete.
    if (msg->max_forwards() <= 0) {
      ++stats_.rejected_483;
      auto& cancel_txn =
          txns_.create_server(msg, sender_to(from), txn::ServerCallbacks{});
      sip::Message reject =
          sip::Message::response(*msg, sip::status::kTooManyHops);
      stamp_oc(reject);
      cancel_txn.respond(std::move(reject).finish());
      return;
    }
    // The CANCEL gets its own transaction and an immediate 200.
    auto& cancel_txn =
        txns_.create_server(msg, sender_to(from), txn::ServerCallbacks{});
    sip::Message ok = sip::Message::response(*msg, sip::status::kOk);
    stamp_oc(ok);
    cancel_txn.respond(std::move(ok).finish());

    // Did we relay the INVITE statefully? Then cancel our own downstream
    // leg with the branch of the forwarded INVITE (RFC 3261 9.1). The
    // CANCEL shares branch and sent-by with its INVITE, so the relay probe
    // is the CANCEL's key with the method swapped — hashed off the message,
    // no key temporary.
    const sip::Via& cancel_via = msg->top_via();
    const std::uint64_t invite_hash = sip::txn_key_hash(
        cancel_via.branch, cancel_via.sent_by, sip::Method::kInvite);
    const InviteRelay* relay =
        invite_relays_.find(invite_hash, [&](const InviteRelay& r) {
          const sip::Via& via = r.invite->top_via();
          return via.branch == cancel_via.branch &&
                 via.sent_by == cancel_via.sent_by;
        });
    if (relay != nullptr) {
      // Copy out before any further table mutation: FlatTable references
      // do not survive insert/erase.
      const sip::MessagePtr fwd_invite = relay->fwd;
      const Address target = relay->target;
      sip::Message cancel = sip::Message::request(
          sip::Method::kCancel, fwd_invite->request_uri(),
          fwd_invite->from(), fwd_invite->to(), fwd_invite->call_id(),
          sip::CSeq{fwd_invite->cseq().seq, sip::Method::kCancel});
      cancel.push_via(fwd_invite->top_via());
      // CANCEL responses terminate at this hop (hop-by-hop method).
      txns_.create_client(std::move(cancel).finish(), sender_to(target),
                          txn::ClientCallbacks{});
      return;
    }

    // Statelessly relayed INVITE (or unknown): forward the CANCEL along
    // the same route; the deterministic stateless branch reproduces the
    // branch the INVITE carried downstream, so it matches there.
    sip::Message fwd = sip::clone(*msg);
    fwd.decrement_max_forwards();  // arrival value >= 1, checked above
    const auto decision = routes_.route(fwd.request_uri());
    if (!decision) return;
    Address target;
    if (decision->local) {
      const auto resolved = resolve_local_target(fwd.request_uri());
      if (!resolved) return;
      target = resolved->address;
      if (resolved->retarget) fwd.set_request_uri(*resolved->retarget);
    } else {
      target = decision->next_hop;
    }
    fwd.push_via(sip::Via{sip::Via::udp(), host_token_,
                          sip::stateless_branch(msg->top_via().branch,
                                                config_.host)});
    send_charged(target, std::move(fwd).finish());
  });
}

void ProxyServer::handle_register(Address from, const sip::MessagePtr& msg) {
  // Registrar processing: bind the To AOR to the Contact for the requested
  // lifetime and answer 200 through a server transaction (which absorbs
  // REGISTER retransmissions).
  const CostVector cost =
      CpuCostModel::forward(config_.stateless_mode, MsgKind::kOther);
  charge(cost);
  cpu_.submit_urgent(cost.total(), [this, from, msg] {
    if (auto* existing = txns_.find_server(*msg)) {
      existing->receive_request(msg);
      return;
    }
    int expires_s = 3600;
    if (const auto header = msg->header("Expires")) {
      std::from_chars(header->data(), header->data() + header->size(),
                      expires_s);
    }
    const std::string aor = msg->to().uri.aor();
    if (msg->contact()) {
      if (expires_s <= 0) {
        location_->unregister(aor);
      } else {
        location_->register_binding(
            aor, msg->contact()->uri,
            sim_.now() + SimTime::seconds(static_cast<double>(expires_s)));
      }
      ++stats_.registrations;
    }
    auto& txn = txns_.create_server(msg, sender_to(from),
                                    txn::ServerCallbacks{});
    sip::Message ok = sip::Message::response(*msg, sip::status::kOk);
    ok.set_header("Expires", std::to_string(expires_s));
    stamp_oc(ok);
    txn.respond(std::move(ok).finish());
  });
}

void ProxyServer::handle_control(Address from, const sip::Message& msg) {
  if (msg.header(kOverloadProbeHeader).has_value()) {
    // A frozen upstream lost track of our status; restate it directly to
    // the prober as a normal X-Overload signal.
    ++stats_.overload_probes_received;
    send_overload_status(from);
    return;
  }
  ++stats_.overload_signals_received;
  const auto value = msg.header(kOverloadHeader);
  if (!value) return;
  // Format: "on;rate=<double>" or "off;rate=<double>".
  const std::string_view text = *value;
  const bool on = text.starts_with("on");
  double rate = 0.0;
  if (const auto pos = text.find("rate="); pos != std::string_view::npos) {
    const std::string_view num = text.substr(pos + 5);
    std::from_chars(num.data(), num.data() + num.size(), rate);
  }
  const auto path = routes_.path_of(from);
  if (path) {
    policy_->on_overload_signal(*path, on, rate);
  }
}

sip::MessagePtr ProxyServer::make_overload_options(std::string_view header,
                                                   const std::string& value) {
  sip::Message options = sip::Message::request(
      sip::Method::kOptions, sip::Uri("overload", host_token_),
      sip::NameAddr{"", sip::Uri("control", host_token_), "svk"},
      sip::NameAddr{"", sip::Uri("control", host_token_), ""},
      config_.host + "-ovl-" + std::to_string(++overload_signal_seq_),
      sip::CSeq{1, sip::Method::kOptions});
  options.push_via(sip::Via{sip::Via::udp(), host_token_, branches_.next()});
  options.set_header(header, value);
  return std::move(options).finish();
}

void ProxyServer::send_overload_signal(bool on, double c_asf_rate) {
  last_overload_on_ = on;
  last_overload_rate_ = c_asf_rate;
  if (const obs::Sinks& obs = sim_.obs(); obs.tracer != nullptr) {
    obs.tracer->instant(on ? "overload_tx_on" : "overload_tx_off",
                        "overload", sim_.now(), config_.address.value(),
                        "c_asf", c_asf_rate);
  }
  char value[48];
  std::snprintf(value, sizeof(value), "%s;rate=%.3f", on ? "on" : "off",
                c_asf_rate);
  for (const Address upstream : upstream_proxies_) {
    // Fault-ablation knob: shed a deterministic fraction of advertisements
    // before they reach the wire (error diffusion, no RNG draw).
    if (config_.overload_signal_loss > 0.0) {
      signal_loss_acc_ += config_.overload_signal_loss;
      if (signal_loss_acc_ >= 1.0) {
        signal_loss_acc_ -= 1.0;
        ++stats_.overload_signals_dropped;
        continue;
      }
    }
    auto msg = make_overload_options(kOverloadHeader, value);
    // Control sends bypass admission: signalling must survive saturation.
    cpu_.submit_urgent(CpuCostModel::generate_error().total(), nullptr);
    send_charged(upstream, msg);
    ++stats_.overload_signals_sent;
  }
}

void ProxyServer::send_overload_status(Address to) {
  char value[48];
  std::snprintf(value, sizeof(value), "%s;rate=%.3f",
                last_overload_on_ ? "on" : "off", last_overload_rate_);
  auto msg = make_overload_options(kOverloadHeader, value);
  cpu_.submit_urgent(CpuCostModel::generate_error().total(), nullptr);
  send_charged(to, msg);
  ++stats_.overload_signals_sent;
}

void ProxyServer::send_overload_probe(std::size_t path_index) {
  if (path_index >= routes_.paths().size()) return;
  const PathInfo& path = routes_.paths()[path_index];
  if (!path.delegable) return;
  if (const obs::Sinks& obs = sim_.obs(); obs.tracer != nullptr) {
    obs.tracer->instant("overload_probe_sent", "overload", sim_.now(),
                        config_.address.value(), "path",
                        static_cast<double>(path_index));
  }
  auto msg = make_overload_options(kOverloadProbeHeader, "request");
  cpu_.submit_urgent(CpuCostModel::generate_error().total(), nullptr);
  send_charged(path.next_hop, msg);
  ++stats_.overload_probes_sent;
}

std::optional<ProxyServer::LocalTarget> ProxyServer::resolve_local_target(
    const sip::Uri& uri) {
  // Direct contact (host of a registered element), as in ACK/BYE whose
  // request URI is the callee's contact.
  if (const auto direct = registry_.resolve(uri.host())) {
    return LocalTarget{*direct, std::nullopt};
  }
  // Otherwise an address-of-record: consult the location service and
  // retarget to the current contact. lookup_uri hashes user@host off the
  // URI parts — no AOR string is built for the per-call routing query.
  const auto binding = location_->lookup_uri(uri, sim_.now());
  if (!binding) return std::nullopt;
  const auto address = registry_.resolve(binding->contact.host());
  if (!address) return std::nullopt;
  return LocalTarget{*address, binding->contact};
}

void ProxyServer::send_charged(Address to, const sip::MessagePtr& msg) {
  const CostVector cost = CpuCostModel::transport_send();
  charge(cost);
  cpu_.submit_urgent(cost.total(), nullptr);
  tx_counter_.inc(sim_.obs().metrics);
  network_.send(config_.address, to, msg);
}

txn::SendFn ProxyServer::sender_to(Address to) {
  return [this, to](const sip::MessagePtr& msg) { send_charged(to, msg); };
}

}  // namespace svk::proxy

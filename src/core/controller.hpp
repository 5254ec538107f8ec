// The SERvartuka dynamic state-distribution controller — the paper's core
// contribution (Sections 4.2 and 5, Algorithms 1 and 2).
//
// Per node, per downstream path, windowed counters track the offered load
// and its split into already-stateful (FASF) and not-yet-stateful traffic.
// Every monitoring period the controller recomputes `myshare` — how many
// requests this node should handle statefully on each delegable path —
// from the closed-form operating point (Eq. 8):
//
//     sf_total = t                      while t <= T_SF
//     sf_total = (1 - beta*t)/(alpha-beta)   once t > T_SF
//
// with alpha = 1/T_SF, beta = 1/T_SL. State beyond the share is *delegated*
// by forwarding the request statelessly (unmarked), so a node further
// downstream takes it. Exit paths (local delivery) can never delegate and
// are always handled statefully. When the required stateful work exceeds
// the feasible budget and no downstream path can absorb more, the node
// freezes and signals overload upstream, advertising the stateful rate its
// subtree keeps absorbing (c_ASF). Recovery uses hysteresis (the paper
// leaves recovery unspecified; see DESIGN.md).
//
// Units: counters count transaction-creating requests (INVITE and BYE each
// count once — both consume state when handled statefully). Thresholds are
// therefore requests/second; use ControllerConfig::from_call_rates to
// convert from the paper's calls/second (1 call = 2 transactions).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "proxy/policy.hpp"

namespace svk::core {

struct ControllerConfig {
  /// Stateful saturation threshold, transaction requests/second.
  double t_sf = 20720.0;
  /// Stateless saturation threshold, transaction requests/second.
  double t_sl = 24600.0;
  /// Algorithm 2 monitoring period.
  SimTime period = SimTime::seconds(1.0);
  /// Utilization ceiling the budget is computed against. The paper's
  /// Eq. 8 uses 1.0 (run the node exactly at capacity); a whisker of
  /// headroom keeps the delegating node out of its own queue. Overshooting
  /// is costlier than undershooting (rejected calls vs. extra delegation),
  /// so the default sits slightly below 1.
  double target_utilization = 0.98;
  /// EWMA gain for the per-path stateful share: window-sampling noise on
  /// the observed rate is amplified ~beta/(alpha-beta)-fold into the raw
  /// share, so the share is low-pass filtered across windows.
  double share_smoothing_gain = 0.4;
  /// Closed-loop correction on the delegable share from the node's
  /// *observed* utilization/backlog (multiplicative decrease when the CPU
  /// runs hot, slow additive recovery). Compensates model drift that the
  /// paper's open-loop thresholds cannot see (e.g. work induced by the
  /// rejected calls themselves). Set false for the paper-literal ablation.
  bool utilization_feedback = true;

  // --- Lost-signal tolerance (overload signals ride unacknowledged OPTIONS
  // --- and can be dropped by the network; see DESIGN.md §controller) ------
  /// While self-overloaded, re-send the overload advertisement every this
  /// many windows so an upstream that missed the original "on" (or a
  /// refreshed c_ASF) converges anyway. 0 disables re-advertisement.
  std::uint32_t readvertise_period_windows = 2;
  /// Release a downstream path's frozen overload state when no signal has
  /// refreshed it for this many windows: a crashed or partitioned neighbor
  /// stops re-advertising, and without a timeout a lost "off" wedges
  /// frozen_c_asf forever. 0 disables the timeout.
  std::uint32_t overload_stale_windows = 6;
  /// Probe a silent overloaded downstream path (via send_probe) once its
  /// signal is this many windows old, backing off exponentially between
  /// probes. Must be below overload_stale_windows to matter. 0 disables
  /// probing.
  std::uint32_t probe_after_windows = 3;

  /// Number of transaction-creating requests per call in the measured
  /// workload (INVITE + BYE).
  static constexpr double kRequestsPerCall = 2.0;

  /// Builds a config from the paper's call-per-second thresholds.
  [[nodiscard]] static ControllerConfig from_call_rates(
      double t_sf_cps, double t_sl_cps,
      SimTime period = SimTime::seconds(1.0));
};

/// Per-downstream-path controller state (counters are per window).
struct PathState {
  bool delegable = false;
  /// False for entries created as resize() filler when a path index beyond
  /// the registered table appears mid-run: their delegability is unknown
  /// until the first request (or overload signal) arrives for *that* index.
  /// Without this flag, a delegable path first seen at a lower index than
  /// an earlier stray index was permanently misclassified as an exit path.
  bool seen = false;
  // --- Algorithm 1/2 window counters -------------------------------------
  std::uint64_t msg_count = 0;   // transaction-creating requests routed here
  std::uint64_t fasf_count = 0;  // arrived already stateful
  std::uint64_t sf_count = 0;    // this node took state
  // --- cross-window state --------------------------------------------------
  /// Allowed stateful count per window; infinity below T_SF.
  double myshare = std::numeric_limits<double>::infinity();
  /// Fraction of not-yet-stateful requests to take state for, derived from
  /// myshare and the previous window's observed rate. Spreads the stateful
  /// share uniformly across the window (a burst of all-stateful handling at
  /// each window start would periodically overrun the CPU even when the
  /// aggregate share is feasible).
  double sf_fraction = 1.0;
  /// Error-diffusion accumulator realizing sf_fraction deterministically.
  double sf_accumulator = 0.0;
  /// EWMA state for the share rate; negative = unset.
  double smoothed_share = -1.0;
  bool overloaded = false;      // downstream froze
  double frozen_c_asf = 0.0;    // stateful rate the frozen subtree absorbs
  // --- lost-signal tolerance ----------------------------------------------
  /// Windows since the last overload signal refreshed this path; aged every
  /// tick while overloaded, reset by on_overload_signal.
  std::uint32_t windows_since_signal = 0;
  /// Current probe backoff interval in windows (0 = no probe sent yet).
  std::uint32_t probe_backoff = 0;
  /// Windows left before the next probe fires.
  std::uint32_t windows_until_probe = 0;
};

class Controller final : public proxy::StatePolicy {
 public:
  explicit Controller(ControllerConfig config);

  [[nodiscard]] proxy::StateDecision decide(
      const proxy::RequestContext& ctx) override;
  void on_tick(SimTime now) override;
  [[nodiscard]] SimTime tick_period() const override {
    return config_.period;
  }
  void on_overload_signal(std::size_t path_index, bool on,
                          double c_asf_rate) override;
  void register_paths(const std::vector<proxy::PathInfo>& paths) override;
  [[nodiscard]] std::string_view name() const override {
    return "servartuka";
  }

  // --- Introspection (tests, benchmarks) ----------------------------------
  [[nodiscard]] const std::vector<PathState>& paths() const { return paths_; }
  [[nodiscard]] bool self_overloaded() const { return self_overloaded_; }
  [[nodiscard]] double last_total_rate() const { return last_total_rate_; }
  [[nodiscard]] double last_budget_rate() const { return last_budget_rate_; }
  [[nodiscard]] double share_correction() const { return correction_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t stale_releases() const {
    return stale_releases_;
  }
  [[nodiscard]] std::uint64_t probes_requested() const {
    return probes_requested_;
  }

 private:
  void reset_window_counters();
  /// Ages overloaded paths' signal freshness, releases stale frozen state
  /// and schedules probes of silent downstream paths. Runs every window.
  void age_overload_state(SimTime now);
  /// Grows paths_ to cover `index` (new entries unseen) and returns the
  /// entry, marking it seen with the given delegability on first sight.
  PathState& path_at(std::size_t index, bool delegable);
  /// Appends this window's record to the attached audit log / tracer.
  void emit_audit(SimTime now, double elapsed, bool below_t_sf,
                  bool overload_changed);

  ControllerConfig config_;
  double alpha_;
  double beta_;
  std::vector<PathState> paths_;
  std::uint64_t tot_msg_{0};
  std::uint64_t tot_sf_{0};
  SimTime last_tick_;
  bool first_tick_done_{false};
  bool self_overloaded_{false};
  double correction_{1.0};
  std::uint32_t windows_since_advert_{0};
  std::uint64_t stale_releases_{0};
  std::uint64_t probes_requested_{0};
  double last_total_rate_{0.0};
  double last_budget_rate_{0.0};
};

}  // namespace svk::core

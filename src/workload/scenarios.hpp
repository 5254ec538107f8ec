// Standard experiment topologies — the server configurations of the
// paper's Section 6, expressed as BedFactory builders so tests and
// benchmarks share one implementation:
//
//  * single proxy                      (Section 3 / Figure 4)
//  * N proxies in series               (Figures 5/6, three-series table)
//  * two-series with internal traffic  (Figure 7 changing-loads)
//  * load-balancing fork               (Figure 8, heterogeneous ablation)
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "fault/fault_plan.hpp"
#include "profile/cost_model.hpp"
#include "proxy/proxy.hpp"
#include "workload/runner.hpp"

namespace svk::workload {

/// How the proxies decide statefulness.
enum class PolicyKind {
  kStaticChainFirstStateful,  // today's config: first stateful, rest stateless
  kStaticChainLastStateful,   // exit stateful, rest stateless
  kStaticAllStateful,
  kStaticAllStateless,        // system keeps NO state (Fig 4/6 reference)
  kServartuka,                // the paper's dynamic controller
};

struct ScenarioOptions {
  PolicyKind policy = PolicyKind::kStaticChainFirstStateful;

  /// Calibrated single-node saturation thresholds (calls/second) used by
  /// the SERvartuka controller; defaults match the measured Figure 4 values.
  double t_sf_cps = 10360.0;
  double t_sl_cps = 12300.0;
  SimTime controller_period = SimTime::seconds(1.0);

  /// Per-proxy CPU capacity multipliers (1.0 = the calibrated node). Sized
  /// to the topology's proxy count or empty for homogeneous.
  std::vector<double> capacity_scale;

  /// Workload shape (paper defaults: 2 clients, 2 servers; the callees
  /// are always the paper's 2 URIs).
  int num_uacs = 2;
  int num_uas = 2;
  bool poisson_arrivals = false;

  /// Proxy modes.
  profile::HandlingMode stateful_mode =
      profile::HandlingMode::kTransactionStateful;
  profile::HandlingMode stateless_mode = profile::HandlingMode::kStateless;
  bool authenticate = false;
  /// With authenticate: enable verification on every proxy (sharing one
  /// realm) instead of only the entry, and scope it to stateful handling —
  /// the paper's distribute-authentication extension.
  bool distribute_auth = false;

  /// Per-proxy CPU queueing-delay bound before 500 Server Busy (overload
  /// control); see proxy::kDefaultMaxQueueDelay for why the default must
  /// keep round trips under SIP T1.
  SimTime max_queue_delay = proxy::kDefaultMaxQueueDelay;

  /// Overload-control subsystem (src/overload), applied to every proxy.
  /// kNone keeps the legacy queue-bound + 500 behavior.
  overload::OverloadConfig overload_control;

  /// Optional hook to adjust the SERvartuka controller configuration
  /// (ablations: disable smoothing, feedback, change headroom, ...).
  std::function<void(core::ControllerConfig&)> controller_tweak;

  /// Fault schedule armed against every bed the factory builds (empty =
  /// fault-free run). Host names must match the topology's
  /// ("proxy0.example.net", "uas0.callee.example.net", ...).
  fault::FaultPlan faults;

  /// Deterministic fraction of overload advertisements each proxy sheds
  /// before sending (fault-ablation axis; see ProxyConfig).
  double overload_signal_loss = 0.0;

  /// Caller abandonment: each UAC CANCELs a call with this probability
  /// once it has rung for `ring_abandon_after` unanswered; the UASes ring
  /// for `answer_delay` before their 200. Zero keeps the paper's workload
  /// (answer at once, never CANCEL).
  double cancel_probability = 0.0;
  SimTime ring_abandon_after = SimTime::seconds(2.0);
  SimTime answer_delay;

  /// Max-Forwards the UACs stamp on requests. Conformance tests lower it
  /// to exercise hop-count exhaustion mid-chain.
  int uac_max_forwards = 70;

  /// Debug fault hook: reintroduces the historical Max-Forwards
  /// check-after-decrement bug on every proxy (mutation smoke for the
  /// checker; see ProxyConfig::debug_predecrement_max_forwards).
  bool debug_predecrement_max_forwards = false;

  std::uint64_t seed = 1;

  /// Fixed-serial compatibility field read by bench/e2e: must be 1 (a bed
  /// has one simulator). The next benchmark change deletes it.
  std::size_t shards = 1;

  /// Overrides the bed's default 250us one-way link latency when > 0.
  SimTime link_latency = SimTime{};
};

/// A single proxy between UACs and UASes.
[[nodiscard]] BedFactory single_proxy(ScenarioOptions options);

/// `num_proxies` in series; calls enter at proxy0 and exit at the last.
[[nodiscard]] BedFactory series_chain(int num_proxies,
                                      ScenarioOptions options);

/// Two in series where a fraction of calls terminates at the first proxy
/// (the paper's internal/external changing-loads scenario).
/// `external_fraction` of the offered load traverses both proxies.
[[nodiscard]] BedFactory two_series_with_internal(double external_fraction,
                                                  ScenarioOptions options);

/// Load-balancing fork: entry proxy splits across two exit proxies 50/50
/// (or per `split_to_upper`).
[[nodiscard]] BedFactory parallel_fork(ScenarioOptions options,
                                       double split_to_upper = 0.5);

/// Wide load-balancing fork: one entry balancer spreads calls round-robin
/// across `num_exits` (>= 2) exit proxies. Use kStaticChainLastStateful to
/// get the classic stateless-balancer / stateful-exits split.
[[nodiscard]] BedFactory wide_fork(int num_exits, ScenarioOptions options);

}  // namespace svk::workload

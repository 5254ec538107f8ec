// Overload control (src/overload).
//
// SERvartuka's delegation decides *where* transaction state lives but sheds
// no load: once the whole chain saturates, retransmission storms pin goodput
// far below capacity (the classic SIP congestion collapse studied by Shen,
// Schulzrinne & Nahum and by Hong, Huang & Yan). This subsystem adds the
// missing piece: a pluggable OverloadPolicy the proxy consults on ingress
// for every session-initiating request.
//
// Two concrete controls are provided:
//
//  * kLocalOccupancy — occupancy-based local admission. A smoothed CPU
//    occupancy estimate is compared against a target; above target, a
//    deterministic fraction of new INVITEs is rejected with
//    `503 Service Unavailable` + `Retry-After`, replacing the raw
//    queue-delay bound (which rejects only after the damage — a full
//    backlog — is already done).
//
//  * kHopByHopRate — RFC 7339-style rate-based feedback. In addition to the
//    local gate, the node runs a token-bucket restrictor per upstream
//    neighbor: when occupancy crosses the target it computes a permitted
//    upstream rate and piggybacks it as an `oc` parameter on the Via of
//    every response it sends upstream. The upstream neighbor throttles
//    before the wire (rejecting locally with 503 on the overloaded hop's
//    behalf), so the overloaded server never spends CPU on work it would
//    shed anyway.
//
// Determinism invariants (the whole simulator is bit-reproducible):
//  * No wall clock, no RNG. All control state advances on sim time only:
//    occupancy samples arrive from the proxy's periodic control tick, token
//    buckets refill lazily from `now` deltas, and fractional shedding uses
//    error diffusion (acc += fraction; acc >= 1 -> act) instead of coin
//    flips.
//  * admit() mutates only policy-local state; identical call sequences give
//    identical decisions.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/sim_time.hpp"

namespace svk::overload {

enum class ControlKind {
  kNone,            // legacy behavior: queue-delay bound + 500
  kLocalOccupancy,  // local 503 + Retry-After above target occupancy
  kHopByHopRate,    // local gate + oc Via feedback to upstream throttlers
};

[[nodiscard]] std::string_view to_string(ControlKind kind);

/// Control period: how often the proxy feeds an occupancy sample.
inline constexpr SimTime kControlPeriod = SimTime::millis(200);
/// Retry-After value stamped on locally generated 503s, in seconds.
inline constexpr int kRetryAfterSeconds = 1;
/// Consecutive below-target control periods required before the
/// restrictor leaves controlled mode.
inline constexpr int kReleasePeriods = 5;

struct OverloadConfig {
  ControlKind kind = ControlKind::kNone;
  /// EWMA gain for the occupancy estimate (per control period).
  double smoothing_gain = 0.3;
};

/// Controller state. The events the policy reacts to (rejections, adverts,
/// downstream 503s) are counted once, by the proxy, in ProxyStats.
struct OverloadStats {
  std::uint64_t occupancy_samples = 0;
  std::uint64_t rate_updates = 0;       // restrictor recomputations
  double smoothed_occupancy = 0.0;
  /// Current advertised upstream rate (cps); negative = unrestricted.
  double advertised_rate_rps = -1.0;
};

enum class AdmitDecision {
  kAdmit,
  kRejectLocal,      // this node is overloaded (local occupancy gate)
  kRejectThrottled,  // a downstream neighbor's advertised rate is exhausted
};

/// Ingress admission + feedback control, consulted by ProxyServer. One
/// instance per proxy; paths index the proxy's RouteTable paths.
class OverloadPolicy {
 public:
  explicit OverloadPolicy(OverloadConfig config) : config_(config) {}
  virtual ~OverloadPolicy() = default;

  OverloadPolicy(const OverloadPolicy&) = delete;
  OverloadPolicy& operator=(const OverloadPolicy&) = delete;

  /// Admission decision for a new session-initiating request bound for
  /// `path_index`. Mutates throttle/shed state (a decision is a commitment).
  [[nodiscard]] virtual AdmitDecision admit(std::size_t path_index,
                                            SimTime now) = 0;

  /// Periodic occupancy sample from the proxy's control tick. `occupancy`
  /// is utilization + backlog growth (may exceed 1.0 under overload).
  virtual void on_occupancy_sample(double occupancy, SimTime now) = 0;

  /// Rate this node currently advertises to its upstream neighbors (cps);
  /// negative = no restriction. Stamped as `oc` on outgoing responses.
  [[nodiscard]] virtual double advertised_rate() const = 0;

  /// An `oc` advertisement arrived from the next hop of `path_index`.
  virtual void on_rate_advertisement(std::size_t path_index, double rate_rps,
                                     SimTime now) = 0;

  /// A 503 (without oc feedback) arrived from the next hop of `path_index`.
  virtual void on_downstream_503(std::size_t path_index, SimTime now) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] const OverloadStats& stats() const { return stats_; }

 protected:
  OverloadConfig config_;
  OverloadStats stats_;
};

/// Builds the policy for `config.kind`; returns nullptr for kNone (the
/// proxy then keeps its legacy queue-bound + 500 behavior, bit-identical
/// to builds before this subsystem existed).
[[nodiscard]] std::unique_ptr<OverloadPolicy> make_overload_policy(
    const OverloadConfig& config, std::size_t num_paths);

}  // namespace svk::overload

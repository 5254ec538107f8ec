#include "overload/overload.hpp"

#include <algorithm>
#include <cassert>

namespace svk::overload {

std::string_view to_string(ControlKind kind) {
  switch (kind) {
    case ControlKind::kNone:
      return "none";
    case ControlKind::kLocalOccupancy:
      return "local";
    case ControlKind::kHopByHopRate:
      return "hop-by-hop";
  }
  return "?";
}

namespace {

/// Occupancy setpoint the controls regulate toward. Occupancy is
/// utilization plus normalized backlog growth, so it exceeds 1.0 when the
/// queue is building — that surplus is the control error.
constexpr double kTargetOccupancy = 0.9;
/// Per-period multiplicative rate adjustment clamps.
constexpr double kMinDecrease = 0.5;
constexpr double kIncreaseFactor = 1.1;
/// The advertised rate never drops below this (cps); a trickle must keep
/// flowing so responses keep refreshing the advertisement upstream.
constexpr double kMinRateRps = 1.0;
/// Token bucket depth, as seconds of burst at the advertised rate.
constexpr double kBucketDepthSeconds = 0.2;
/// An advertisement not refreshed within this window expires and the
/// throttler stops restricting (RFC 7339 oc-validity analog; guarantees
/// recovery if the overloaded hop goes quiet).
constexpr SimTime kAdvertValidity = SimTime::millis(1000);

// ---------------------------------------------------------------------------
// Local occupancy gate
// ---------------------------------------------------------------------------

/// Occupancy-based local admission: EWMA the occupancy samples; above the
/// target, shed the fraction of arrivals that would bring the carried load
/// back to target (accept_fraction = target / smoothed), realized
/// deterministically by error diffusion.
class LocalOccupancyPolicy : public OverloadPolicy {
 public:
  explicit LocalOccupancyPolicy(OverloadConfig config)
      : OverloadPolicy(config) {}

  AdmitDecision admit(std::size_t path_index, SimTime now) override {
    (void)path_index;
    (void)now;
    return local_gate();
  }

  void on_occupancy_sample(double occupancy, SimTime now) override {
    (void)now;
    ++stats_.occupancy_samples;
    const double g = config_.smoothing_gain;
    stats_.smoothed_occupancy =
        (1.0 - g) * stats_.smoothed_occupancy + g * occupancy;
  }

  double advertised_rate() const override { return -1.0; }

  void on_rate_advertisement(std::size_t, double, SimTime) override {}

  void on_downstream_503(std::size_t, SimTime) override {}

  std::string_view name() const override { return "local"; }

 protected:
  /// The shared shedding step: admit unless smoothed occupancy exceeds the
  /// target, in which case pass accept_fraction of arrivals through.
  [[nodiscard]] AdmitDecision local_gate() {
    const double occ = stats_.smoothed_occupancy;
    if (occ <= kTargetOccupancy) return AdmitDecision::kAdmit;
    const double accept = kTargetOccupancy / occ;
    shed_acc_ += 1.0 - accept;
    if (shed_acc_ >= 1.0) {
      shed_acc_ -= 1.0;
      return AdmitDecision::kRejectLocal;
    }
    return AdmitDecision::kAdmit;
  }

 private:
  double shed_acc_ = 0.0;  // error-diffusion accumulator (no RNG)
};

// ---------------------------------------------------------------------------
// Hop-by-hop rate feedback
// ---------------------------------------------------------------------------

/// RFC 7339-style control. Two roles in one object:
///
///  * Restrictor (this node as the overloaded server): measures its own
///    offered rate per control period; when smoothed occupancy crosses the
///    target it advertises rate = offered * target / occupancy, then
///    adjusts multiplicatively each period (clamped to
///    [kMinDecrease, kIncreaseFactor] per step). It leaves controlled mode
///    after kReleasePeriods consecutive periods comfortably below target.
///
///  * Throttler (this node as the upstream neighbor): one token bucket per
///    path, parameterized by the advert last read off that path's Via
///    `oc`. Buckets refill lazily on access from sim-time deltas; an advert
///    not refreshed within kAdvertValidity expires and the path runs
///    unrestricted again.
class HopByHopPolicy : public LocalOccupancyPolicy {
 public:
  HopByHopPolicy(OverloadConfig config, std::size_t num_paths)
      : LocalOccupancyPolicy(config), buckets_(num_paths) {}

  AdmitDecision admit(std::size_t path_index, SimTime now) override {
    ++offered_in_period_;
    // The local gate guards this node; the bucket guards the next hop.
    const AdmitDecision local = local_gate();
    if (local != AdmitDecision::kAdmit) return local;
    if (path_index >= buckets_.size()) return AdmitDecision::kAdmit;
    Bucket& bucket = buckets_[path_index];
    if (!bucket.active(now)) {
      return AdmitDecision::kAdmit;
    }
    bucket.refill(now);
    if (bucket.tokens >= 1.0) {
      bucket.tokens -= 1.0;
      return AdmitDecision::kAdmit;
    }
    return AdmitDecision::kRejectThrottled;
  }

  void on_occupancy_sample(double occupancy, SimTime now) override {
    LocalOccupancyPolicy::on_occupancy_sample(occupancy, now);
    const double occ = stats_.smoothed_occupancy;
    const double offered_rps = static_cast<double>(offered_in_period_) /
                               kControlPeriod.to_seconds();
    offered_in_period_ = 0;

    if (!controlled_) {
      if (occ > kTargetOccupancy) {
        // Enter controlled mode: carry what the target allows of what was
        // actually offered this period.
        controlled_ = true;
        below_target_periods_ = 0;
        stats_.advertised_rate_rps =
            std::max(kMinRateRps, offered_rps * kTargetOccupancy / occ);
        ++stats_.rate_updates;
      }
      return;
    }

    // Controlled: multiplicative adjustment toward the setpoint, clamped so
    // one bad sample cannot slam the rate to zero or double it.
    const double ratio = occ > 0.0 ? kTargetOccupancy / occ : kIncreaseFactor;
    const double step = std::clamp(ratio, kMinDecrease, kIncreaseFactor);
    stats_.advertised_rate_rps =
        std::max(kMinRateRps, stats_.advertised_rate_rps * step);
    ++stats_.rate_updates;

    if (occ < 0.8 * kTargetOccupancy) {
      if (++below_target_periods_ >= kReleasePeriods) {
        controlled_ = false;
        below_target_periods_ = 0;
        stats_.advertised_rate_rps = -1.0;
      }
    } else {
      below_target_periods_ = 0;
    }
  }

  double advertised_rate() const override {
    return controlled_ ? stats_.advertised_rate_rps : -1.0;
  }

  void on_rate_advertisement(std::size_t path_index, double rate_rps,
                             SimTime now) override {
    if (path_index >= buckets_.size() || rate_rps < 0.0) return;
    Bucket& bucket = buckets_[path_index];
    if (bucket.active(now) &&
        bucket.rate_rps == rate_rps) {
      bucket.last_advert = now;  // refresh only; keep the token level
      return;
    }
    const bool was_active = bucket.active(now);
    if (was_active) bucket.refill(now);
    bucket.rate_rps = rate_rps;
    const double depth = std::max(1.0, rate_rps * kBucketDepthSeconds);
    if (!was_active) {
      bucket.tokens = depth;  // fresh restriction starts with a full burst
    } else {
      bucket.tokens = std::min(bucket.tokens, depth);
    }
    bucket.depth = depth;
    bucket.last_refill = now;
    bucket.last_advert = now;
  }

  void on_downstream_503(std::size_t path_index, SimTime now) override {
    // A bare 503 (no oc param — e.g. a legacy hop) is a one-shot overload
    // hint: tax the bucket if one is active, otherwise nothing to do — the
    // UAC-facing Retry-After already slows the source.
    if (path_index >= buckets_.size()) return;
    Bucket& bucket = buckets_[path_index];
    if (bucket.active(now)) {
      bucket.refill(now);
      bucket.tokens = std::max(0.0, bucket.tokens - 1.0);
    }
  }

  std::string_view name() const override { return "hop-by-hop"; }

 private:
  struct Bucket {
    double rate_rps = -1.0;  // negative = no advert ever received
    double tokens = 0.0;
    double depth = 0.0;
    SimTime last_refill;
    SimTime last_advert;

    [[nodiscard]] bool active(SimTime now) const {
      return rate_rps >= 0.0 && now - last_advert <= kAdvertValidity;
    }

    void refill(SimTime now) {
      if (now > last_refill) {
        tokens = std::min(depth,
                          tokens + rate_rps *
                                       (now - last_refill).to_seconds());
        last_refill = now;
      }
    }
  };

  std::vector<Bucket> buckets_;
  std::uint64_t offered_in_period_ = 0;
  bool controlled_ = false;
  int below_target_periods_ = 0;
};

}  // namespace

std::unique_ptr<OverloadPolicy> make_overload_policy(
    const OverloadConfig& config, std::size_t num_paths) {
  switch (config.kind) {
    case ControlKind::kNone:
      return nullptr;
    case ControlKind::kLocalOccupancy:
      return std::make_unique<LocalOccupancyPolicy>(config);
    case ControlKind::kHopByHopRate:
      return std::make_unique<HopByHopPolicy>(config, num_paths);
  }
  return nullptr;
}

}  // namespace svk::overload

// A fixed-memory quantile sketch for response times, used by the
// measurement layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace svk {

/// Fixed-bin histogram over [0, limit); out-of-range samples clamp to the
/// last bin. Supports quantile queries by bin interpolation. Used for
/// response-time distributions where thousands of samples per second make
/// exact storage wasteful.
class Histogram {
 public:
  /// \param limit     upper edge of the tracked range (exclusive)
  /// \param num_bins  number of equal-width bins (>= 1)
  Histogram(double limit, std::size_t num_bins);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return total_; }

  /// Value below which the given fraction q in [0,1] of samples fall,
  /// linearly interpolated within the containing bin. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double mean() const;

  void reset();

 private:
  double limit_;
  double bin_width_;
  std::vector<std::uint64_t> bins_;
  std::size_t total_{0};
  double sum_{0.0};
};

}  // namespace svk

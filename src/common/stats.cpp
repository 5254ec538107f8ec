#include "common/stats.hpp"

#include <algorithm>
#include <cassert>

namespace svk {

Histogram::Histogram(double limit, std::size_t num_bins)
    : limit_(limit), bin_width_(limit / static_cast<double>(num_bins)),
      bins_(num_bins, 0) {
  assert(limit > 0.0 && num_bins >= 1);
}

void Histogram::add(double x) {
  sum_ += x;
  ++total_;
  std::size_t idx;
  if (x <= 0.0) {
    idx = 0;
  } else if (x >= limit_) {
    idx = bins_.size() - 1;
  } else {
    idx = static_cast<std::size_t>(x / bin_width_);
    idx = std::min(idx, bins_.size() - 1);
  }
  ++bins_[idx];
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;  // an empty bin holds no quantile
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target) {
      // Interpolate within bin i.
      const double frac = (target - cum) / static_cast<double>(bins_[i]);
      return (static_cast<double>(i) + frac) * bin_width_;
    }
    cum = next;
  }
  return limit_;
}

double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

void Histogram::reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
}

}  // namespace svk

// Per-functional-block CPU event accounting — the role OProfile played in
// the paper's Section 3.1 measurement.
#pragma once

#include "profile/cost_model.hpp"

namespace svk::profile {

/// Accumulates CPU events by block for one server.
class CpuProfiler {
 public:
  void charge(const CostVector& cost) { totals_ += cost; }

  [[nodiscard]] const CostVector& totals() const { return totals_; }
  [[nodiscard]] double events(CostBlock block) const {
    return totals_[block];
  }
  /// Application-level events (excluding transport), i.e. what an oprofile
  /// run over the server binary reports.
  [[nodiscard]] double application_events() const {
    return totals_.application_total();
  }

  void reset() { totals_ = CostVector{}; }

  /// Snapshot-diff support for windowed profiles.
  [[nodiscard]] CostVector snapshot() const { return totals_; }

 private:
  CostVector totals_;
};

}  // namespace svk::profile

// Controller audit log — the per-window decision record of every
// SERvartuka controller in a run.
//
// Each closing monitoring window appends one AuditWindow: the observed
// per-path counters (msg/fasf/sf), the newly computed control outputs
// (myshare, sf_fraction, smoothed_share), the closed-loop correction, and
// the overload state transitions. This is the ground truth for debugging
// controller dynamics: regressions like a stale correction multiplier or a
// path misclassified as non-delegable are invisible in end-of-run
// aggregates but obvious in the window-by-window series.
//
// The log is bounded (ring semantics: newest windows win) and purely
// passive — appending can never change simulated results.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/json.hpp"
#include "common/sim_time.hpp"

namespace svk::obs {

/// One downstream path's state at a window boundary.
struct AuditPathRow {
  std::size_t path_index = 0;
  bool delegable = false;
  bool overloaded = false;       // downstream frozen
  std::uint64_t msg_count = 0;   // counters of the window just closed
  std::uint64_t fasf_count = 0;
  std::uint64_t sf_count = 0;
  // Control outputs for the window just opened. myshare is infinite below
  // T_SF (serialized as JSON null).
  double myshare = 0.0;
  double sf_fraction = 0.0;
  double smoothed_share = 0.0;
  double frozen_c_asf = 0.0;
};

/// One controller monitoring window.
struct AuditWindow {
  std::uint32_t node_tid = 0;  // owning node (proxy address)
  SimTime at;                  // closing tick time
  double elapsed = 0.0;        // measured window length, seconds
  double total_rate = 0.0;     // requests/second over the window
  double budget_rate = 0.0;    // feasible stateful rate (Eq. 8)
  double correction = 0.0;     // closed-loop share multiplier
  bool below_t_sf = false;     // Eq. 8 case 1 window
  bool self_overloaded = false;
  bool overload_changed = false;  // self_overloaded flipped this window
  std::vector<AuditPathRow> paths;

  [[nodiscard]] JsonValue to_json() const;
};

/// Serializes a window sequence (any container of AuditWindow).
[[nodiscard]] JsonValue windows_to_json(
    const std::vector<AuditWindow>& windows);

class ControllerAuditLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit ControllerAuditLog(std::size_t max_windows = kDefaultCapacity);

  void append(AuditWindow window);

  [[nodiscard]] const std::deque<AuditWindow>& windows() const {
    return windows_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Windows of one node, in time order.
  [[nodiscard]] std::vector<AuditWindow> windows_for(
      std::uint32_t node_tid) const;

  /// All retained windows as a flat copy (time order, nodes interleaved).
  [[nodiscard]] std::vector<AuditWindow> snapshot() const;

 private:
  std::size_t max_windows_;
  std::deque<AuditWindow> windows_;
  std::uint64_t dropped_{0};
};

/// One overload-control tick of one node: the occupancy the controller saw,
/// the rate it advertises upstream, and the cumulative reject counters.
/// Appended by the proxy each control period when the overload policy is
/// active; the window-by-window series makes controller dynamics (ramp-in,
/// release, throttle hand-off between hops) debuggable the same way the
/// ControllerAuditLog does for delegation.
struct OverloadAuditRecord {
  std::uint32_t node_tid = 0;
  SimTime at;
  double occupancy = 0.0;        // smoothed estimate after this sample
  double advertised_rate = -1.0; // cps; negative = unrestricted
  std::uint64_t local_rejects = 0;      // cumulative
  std::uint64_t throttled_rejects = 0;  // cumulative

  [[nodiscard]] JsonValue to_json() const;
};

class OverloadAuditLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit OverloadAuditLog(std::size_t max_records = kDefaultCapacity);

  void append(OverloadAuditRecord record);

  [[nodiscard]] const std::deque<OverloadAuditRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  [[nodiscard]] std::vector<OverloadAuditRecord> records_for(
      std::uint32_t node_tid) const;
  [[nodiscard]] std::vector<OverloadAuditRecord> snapshot() const;

 private:
  std::size_t max_records_;
  std::deque<OverloadAuditRecord> records_;
  std::uint64_t dropped_{0};
};

[[nodiscard]] JsonValue overload_records_to_json(
    const std::vector<OverloadAuditRecord>& records);

}  // namespace svk::obs

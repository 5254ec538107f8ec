// Single-core CPU model.
//
// Each server node owns a CpuQueue: a non-idling FIFO work queue with a
// fixed processing capacity (abstract "CPU events" per second, matching the
// oprofile unit of Figure 3). Work is admitted unless the backlog already
// exceeds a configured queueing-delay bound, which is how the paper's
// OpenSER behaves at saturation (rejecting with 500 Server Busy when its
// internal queues fill).
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "common/stat_table.hpp"
#include "sim/event_action.hpp"
#include "sim/simulator.hpp"

namespace svk::sim {

struct CpuQueueConfig {
  /// Processing capacity in cost units per second.
  double capacity = 1.0;
  /// Admission bound: work is rejected when the current backlog implies a
  /// queueing delay beyond this.
  SimTime max_queue_delay = SimTime::millis(1500);
};

struct CpuStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double total_cost = 0.0;  // admitted cost units

  static constexpr StatField<CpuStats> kFields[] = {
      {"cpu.admitted", &CpuStats::admitted},
      {"cpu.rejected", &CpuStats::rejected},
  };
};

/// FIFO CPU with admission control and utilization accounting.
class CpuQueue {
 public:
  /// A job's completion: the event the CPU schedules when the job's
  /// service ends, so it moves into the timer wheel as is.
  using Completion = EventAction;

  CpuQueue(Simulator& sim, CpuQueueConfig config);

  /// Tries to admit `cost` units of work; on completion (after queueing +
  /// service time) runs `done`. Returns false (and runs nothing) when the
  /// backlog bound is exceeded.
  [[nodiscard]] bool submit(double cost, Completion done);

  /// Admits work unconditionally (used for cheap overload responses such as
  /// generating a 500, which a real server performs even when saturated).
  void submit_urgent(double cost, Completion done);

  /// Backlog ahead of newly submitted work, as a delay.
  [[nodiscard]] SimTime backlog() const;

  /// Cumulative busy time up to `now`. Because the server is non-idling and
  /// FIFO, busy time = total admitted service time minus the part still
  /// scheduled in the future.
  [[nodiscard]] SimTime busy_elapsed(SimTime now) const;

  [[nodiscard]] const CpuStats& stats() const { return stats_; }
  [[nodiscard]] double capacity() const { return config_.capacity; }

  /// Fault injection: scales the effective capacity (1.0 = nominal, 0.5 =
  /// half speed). The unserved backlog is rescaled to the new speed at the
  /// change instant, so a degrade (or recovery) immediately stretches (or
  /// shrinks) the queueing delay admission and utilization see — not just
  /// the service time of work submitted afterwards. Completion callbacks
  /// already in the event queue keep their original fire times (the model
  /// treats queued jobs as dispatched); the backlog clock is what admission,
  /// backlog() and busy_elapsed() read.
  void set_capacity_factor(double factor);
  [[nodiscard]] double capacity_factor() const { return capacity_factor_; }

  /// Node id used for trace events (the owning proxy's address); 0 until
  /// set. Tracing reads the simulator's observability sinks.
  void set_trace_tid(std::uint32_t tid) { trace_tid_ = tid; }

 private:
  void enqueue(double cost, Completion done);

  Simulator& sim_;
  CpuQueueConfig config_;
  double capacity_factor_{1.0};  // fault-injected degradation multiplier
  SimTime busy_until_;        // when the last admitted work completes
  SimTime total_service_;     // sum of all admitted service times
  CpuStats stats_;
  std::uint32_t trace_tid_{0};
};

/// Measures mean CPU utilization over an interval by snapshotting
/// CpuQueue::busy_elapsed at the interval start.
class UtilizationProbe {
 public:
  UtilizationProbe(const CpuQueue& cpu, const Simulator& sim);

  /// Restarts the measurement interval at the current time.
  void restart();

  /// Mean utilization in [restart time, now], in [0, 1].
  [[nodiscard]] double utilization() const;

 private:
  const CpuQueue& cpu_;
  const Simulator& sim_;
  SimTime start_;
  SimTime busy_at_start_;
};

}  // namespace svk::sim

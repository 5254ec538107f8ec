// The reference job: a fixed piece of work owned by the benchmark, timed
// between pieces of the workload so that host time can be given at a
// reference speed of the machine.
//
// The benchmark runs on shared machines whose speed changes by tens of
// percent within seconds to minutes, as other tenants contend for cores,
// caches and memory. CPU time stretches with wall time there, so no clock
// removes it. A pass of the job has three timed parts, one for each way
// the machine slows down: 20000 dependent loads through a random cycle in
// a 32 MiB table with the visited lines evicted from every cache level
// (memory latency and bandwidth), the same loads right after the whole
// table was read in order (room in the shared last-level cache), and a
// chain of dependent integer arithmetic in registers (the core). Timed
// next to the simulator, it tracked the simulator's slowdowns better than
// variants built from the simulator's own kind of work (heaps, hash
// tables, small allocations). Each part starts from a state the job sets
// up itself, untimed, and the job never calls the allocator, so neither
// the simulator's code nor the state it left in the heap and caches moves
// the job's time.
#pragma once

#include <cstddef>
#include <vector>

namespace svk::e2e {

/// Host seconds of one pass of the reference job at the reference speed:
/// its median in quiet runs on the machine the benchmark was built on
/// (4-vCPU Xeon VM with a 105 MiB L3, GCC 12.2, RelWithDebInfo).
inline constexpr double kReferenceJobSeconds = 0.0074;

/// Bytes the job keeps resident for the life of the process.
inline constexpr std::size_t kReferenceJobBytes = std::size_t{32} << 20;

/// Passes of the reference job taken through one run.
class ReferenceClock {
 public:
  /// Times one pass, keeps it and returns its host seconds.
  double pass();

  [[nodiscard]] double last_seconds() const;
  [[nodiscard]] double median_seconds() const;
  [[nodiscard]] const std::vector<double>& samples() const { return s_; }

 private:
  std::vector<double> s_;
};

/// Host time at the reference speed, gathered in pieces. A piece lies
/// between two passes of the reference job and is scaled by
/// kReferenceJobSeconds over their mean, so a change in the machine's
/// speed is followed from one piece to the next.
class ScaledTime {
 public:
  /// Times the pass that opens the first piece.
  explicit ScaledTime(ReferenceClock& ref);

  /// Adds host seconds to the open piece; `run_phase` seconds also count
  /// towards run().
  void add(double seconds, bool run_phase = false);

  /// Closes the open piece with a pass, which also opens the next one;
  /// returns the closed piece at the reference speed.
  double close();

  /// Closed pieces at the reference speed: all, and their run phase.
  [[nodiscard]] double wall() const { return wall_; }
  [[nodiscard]] double run() const { return run_; }
  /// Closed pieces as measured.
  [[nodiscard]] double raw() const { return raw_; }

 private:
  ReferenceClock& ref_;
  double open_ = 0.0, open_run_ = 0.0;
  double wall_ = 0.0, run_ = 0.0, raw_ = 0.0;
};

}  // namespace svk::e2e

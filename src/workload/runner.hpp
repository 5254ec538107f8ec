// Measurement runner: drives a TestBed through warmup + measurement
// windows and extracts the paper's metrics (throughput at the UAS, setup
// times at the UAC, per-proxy utilization and rejection counts); sweeps
// offered load to find saturation.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/run_record.hpp"
#include "common/sim_time.hpp"
#include "obs/audit.hpp"
#include "workload/testbed.hpp"

namespace svk::workload {

struct MeasureOptions {
  SimTime warmup = SimTime::seconds(2.0);
  SimTime measure = SimTime::seconds(5.0);
  /// Enables the observability layer (trace/audit) on the measured bed.
  /// Purely passive: simulated results are bit-identical either way
  /// (asserted by ObsDeterminismTest); only PointResult::controller_windows
  /// and the retained bed's trace contents change.
  bool observe = false;
  /// Runs the conformance oracle + invariant checker (src/check) in
  /// lockstep with the measured bed. Read-only like observe: simulated
  /// results stay bit-identical (asserted by the conformance suite). The
  /// load is still flowing at the measurement snapshot, so the drain-time
  /// checks do NOT run here — only continuous ones; violations observed so
  /// far are surfaced via PointResult::check_violations.
  bool check = false;
  check::CheckOptions check_options;
};

/// One (offered load -> observed behaviour) sample.
struct PointResult {
  double offered_cps = 0.0;
  double throughput_cps = 0.0;  // calls completed at UASes per second
  double attempted_cps = 0.0;
  /// Fraction of attempted calls that completed during the window.
  double goodput_ratio = 0.0;

  double setup_ms_mean = 0.0;
  double setup_ms_p50 = 0.0;
  double setup_ms_p90 = 0.0;
  double setup_ms_p99 = 0.0;

  std::uint64_t calls_failed = 0;
  std::uint64_t busy_500 = 0;
  std::uint64_t busy_503 = 0;          // 503 Service Unavailable finals
  std::uint64_t calls_rejected = 0;    // failed via explicit 503 (cheap)
  std::uint64_t calls_timed_out = 0;   // failed via timer B/F (expensive)
  std::uint64_t retransmissions = 0;
  std::uint64_t trying_received = 0;
  std::uint64_t calls_established_uac = 0;

  std::vector<double> proxy_utilization;       // per proxy, in [0,1]
  std::vector<std::uint64_t> proxy_rejected;   // 500s sent per proxy
  std::vector<std::uint64_t> proxy_rejected_503;  // 503s sent per proxy
  std::vector<std::uint64_t> proxy_stateful;   // stateful forwards per proxy
  std::vector<std::uint64_t> proxy_stateless;  // stateless forwards per proxy

  /// Real (host) time spent simulating this point. Not part of the
  /// simulation output: identical runs may report different wall times.
  double wall_seconds = 0.0;

  /// Violations the checking subsystem recorded (0 unless
  /// MeasureOptions::check). Diagnostic only — deliberately NOT part of
  /// to_run_record, so checked and unchecked digests stay identical.
  std::uint64_t check_violations = 0;

  /// Controller audit windows captured during the run (empty unless
  /// MeasureOptions::observe was set), all nodes interleaved in emission
  /// order; AuditWindow::node_tid tells them apart.
  std::vector<obs::AuditWindow> controller_windows;
};

/// Converts a measured point into the serializable record form. `rate_scale`
/// multiplies every calls/second figure (benches use it to convert scaled
/// simulation units back to full-scale cps); counts, times and utilizations
/// are scale-free and pass through.
[[nodiscard]] RunRecord to_run_record(const PointResult& point,
                                      double rate_scale = 1.0,
                                      std::string label = {});

/// Builds a fresh, fully wired TestBed whose UACs offer `offered_cps` total.
using BedFactory =
    std::function<std::unique_ptr<TestBed>(double offered_cps)>;

/// Runs one load point: warmup, then a measurement window.
[[nodiscard]] PointResult measure_point(const BedFactory& factory,
                                        double offered_cps,
                                        const MeasureOptions& options = {});

/// A measured point together with its (finished) TestBed, kept alive so
/// callers can export its trace and metrics_json() after the run.
struct ObservedPoint {
  PointResult point;
  std::unique_ptr<TestBed> bed;
};

/// Like measure_point, but hands back the bed as well. Use with
/// `options.observe = true` to export the trace afterwards.
[[nodiscard]] ObservedPoint measure_point_retained(
    const BedFactory& factory, double offered_cps,
    const MeasureOptions& options = {});

struct SweepResult {
  std::vector<PointResult> points;
  double max_throughput_cps = 0.0;
  double offered_at_max = 0.0;
};

// Every load point builds its own TestBed/Simulator, so points are
// independent, deterministic simulations: fanning them across `threads`
// workers (0 = hardware concurrency) changes wall-clock time only, never
// the measured values.

/// Measures every offered load from `lo` to `hi` in steps of `step`.
[[nodiscard]] SweepResult sweep(const BedFactory& factory, double lo,
                                double hi, double step,
                                const MeasureOptions& options = {},
                                std::size_t threads = 0);

/// The maximum sustained throughput of the topology: brackets the knee with
/// a serial coarse scan at 4 x `step` that stops once throughput has
/// clearly fallen past its maximum, then bisects the bracket down to `step`
/// resolution, measuring both probe points of each level concurrently.
[[nodiscard]] double find_saturation(const BedFactory& factory, double lo,
                                     double hi, double step,
                                     const MeasureOptions& options = {},
                                     std::size_t threads = 0);

/// Runs arbitrary independent measurement jobs across `threads` workers,
/// returning results in job order. For heterogeneous sweeps (per-point
/// scenario options) that cannot go through `sweep`.
[[nodiscard]] std::vector<PointResult> run_points_parallel(
    const std::vector<std::function<PointResult()>>& jobs,
    std::size_t threads = 0);

}  // namespace svk::workload

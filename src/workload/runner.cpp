#include "workload/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/thread_pool.hpp"
#include "sim/cpu_queue.hpp"

namespace svk::workload {
namespace {

/// Snapshot of every monotone counter we diff across the measurement window.
struct Snapshot {
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t busy_500 = 0;
  std::uint64_t busy_503 = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t trying = 0;
  std::uint64_t established = 0;
  std::vector<std::uint64_t> proxy_rejected;
  std::vector<std::uint64_t> proxy_rejected_503;
  std::vector<std::uint64_t> proxy_stateful;
  std::vector<std::uint64_t> proxy_stateless;
};

Snapshot take_snapshot(TestBed& bed) {
  Snapshot s;
  s.completed = bed.total_completed_calls();
  s.attempted = bed.total_attempted_calls();
  for (const auto& uac : bed.uacs()) {
    const UacMetrics& m = uac->metrics();
    s.failed += m.calls_failed;
    s.busy_500 += m.busy_500_received;
    s.busy_503 += m.busy_503_received;
    s.rejected += m.calls_rejected;
    s.timed_out += m.calls_timed_out;
    s.retransmissions += m.retransmissions;
    s.trying += m.trying_received;
    s.established += m.calls_established;
  }
  for (const auto& proxy : bed.proxies()) {
    const proxy::ProxyStats& p = proxy->stats();
    s.proxy_rejected.push_back(p.rejected_busy);
    s.proxy_rejected_503.push_back(p.rejected_503 + p.throttled_503);
    s.proxy_stateful.push_back(p.forwarded_stateful);
    s.proxy_stateless.push_back(p.forwarded_stateless);
  }
  return s;
}

/// The load grid of a sweep. Accumulates exactly like the serial loop
/// always did (`offered += step`), so serial and parallel sweeps measure
/// bit-identical offered loads.
std::vector<double> load_grid(double lo, double hi, double step) {
  std::vector<double> grid;
  for (double offered = lo; offered <= hi + 1e-9; offered += step) {
    grid.push_back(offered);
  }
  return grid;
}

/// Folds measured points into a SweepResult with the serial max-tracking
/// semantics (strictly-greater updates, in grid order).
SweepResult fold_points(std::vector<PointResult> points) {
  SweepResult result;
  for (PointResult& point : points) {
    if (point.throughput_cps > result.max_throughput_cps) {
      result.max_throughput_cps = point.throughput_cps;
      result.offered_at_max = point.offered_cps;
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace

RunRecord to_run_record(const PointResult& point, double rate_scale,
                        std::string label) {
  RunRecord record;
  record.label = std::move(label);
  record.offered_cps = point.offered_cps * rate_scale;
  record.achieved_cps = point.throughput_cps * rate_scale;
  record.attempted_cps = point.attempted_cps * rate_scale;
  record.goodput_ratio = point.goodput_ratio;
  record.setup_ms_mean = point.setup_ms_mean;
  record.setup_ms_p50 = point.setup_ms_p50;
  record.setup_ms_p90 = point.setup_ms_p90;
  record.setup_ms_p99 = point.setup_ms_p99;
  record.retransmissions = point.retransmissions;
  record.calls_failed = point.calls_failed;
  record.busy_500 = point.busy_500;
  record.busy_503 = point.busy_503;
  record.calls_rejected = point.calls_rejected;
  record.calls_timed_out = point.calls_timed_out;
  record.node_utilization = point.proxy_utilization;
  record.node_rejected = point.proxy_rejected;
  record.node_rejected_503 = point.proxy_rejected_503;
  record.wall_seconds = point.wall_seconds;
  if (!point.controller_windows.empty()) {
    record.controller_windows = obs::windows_to_json(point.controller_windows);
  }
  return record;
}

PointResult measure_point(const BedFactory& factory, double offered_cps,
                          const MeasureOptions& options) {
  return measure_point_retained(factory, offered_cps, options).point;
}

ObservedPoint measure_point_retained(const BedFactory& factory,
                                     double offered_cps,
                                     const MeasureOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::unique_ptr<TestBed> bed = factory(offered_cps);
  if (options.observe) bed->enable_observability();
  if (options.check) bed->enable_checking(options.check_options);

  bed->start_load();
  bed->run_until(options.warmup);

  const Snapshot before = take_snapshot(*bed);
  std::vector<sim::UtilizationProbe> probes;
  probes.reserve(bed->proxies().size());
  for (const auto& proxy : bed->proxies()) {
    probes.emplace_back(proxy->cpu(), proxy->sim());
  }
  for (auto& uac : bed->uacs()) {
    uac->metrics().setup_time_ms.reset();
  }

  bed->run_until(options.warmup + options.measure);
  const Snapshot after = take_snapshot(*bed);
  const double secs = options.measure.to_seconds();

  PointResult result;
  result.offered_cps = offered_cps;
  result.throughput_cps =
      static_cast<double>(after.completed - before.completed) / secs;
  result.attempted_cps =
      static_cast<double>(after.attempted - before.attempted) / secs;
  result.goodput_ratio =
      result.attempted_cps > 0.0
          ? result.throughput_cps / result.attempted_cps
          : 0.0;
  result.calls_failed = after.failed - before.failed;
  result.busy_500 = after.busy_500 - before.busy_500;
  result.busy_503 = after.busy_503 - before.busy_503;
  result.calls_rejected = after.rejected - before.rejected;
  result.calls_timed_out = after.timed_out - before.timed_out;
  result.retransmissions = after.retransmissions - before.retransmissions;
  result.trying_received = after.trying - before.trying;
  result.calls_established_uac = after.established - before.established;

  // Setup-time distribution: aggregate across UACs (histograms were reset
  // at the window start).
  Histogram merged(10000.0, 2000);
  double weighted_mean = 0.0;
  std::size_t samples = 0;
  for (const auto& uac : bed->uacs()) {
    const Histogram& h = uac->metrics().setup_time_ms;
    weighted_mean += h.mean() * static_cast<double>(h.count());
    samples += h.count();
  }
  if (samples > 0) {
    result.setup_ms_mean = weighted_mean / static_cast<double>(samples);
  }
  // Percentiles from the largest UAC histogram when several exist (they
  // see statistically identical traffic); exact merge is unnecessary.
  const Histogram* biggest = nullptr;
  for (const auto& uac : bed->uacs()) {
    const Histogram& h = uac->metrics().setup_time_ms;
    if (!biggest || h.count() > biggest->count()) biggest = &h;
  }
  if (biggest != nullptr && biggest->count() > 0) {
    result.setup_ms_p50 = biggest->quantile(0.50);
    result.setup_ms_p90 = biggest->quantile(0.90);
    result.setup_ms_p99 = biggest->quantile(0.99);
  }

  for (std::size_t i = 0; i < probes.size(); ++i) {
    result.proxy_utilization.push_back(probes[i].utilization());
    result.proxy_rejected.push_back(after.proxy_rejected[i] -
                                    before.proxy_rejected[i]);
    result.proxy_rejected_503.push_back(after.proxy_rejected_503[i] -
                                        before.proxy_rejected_503[i]);
    result.proxy_stateful.push_back(after.proxy_stateful[i] -
                                    before.proxy_stateful[i]);
    result.proxy_stateless.push_back(after.proxy_stateless[i] -
                                     before.proxy_stateless[i]);
  }
  if (obs::Observability* obs = bed->observability();
      obs != nullptr && obs->audit() != nullptr) {
    result.controller_windows = obs->audit()->snapshot();
  }
  if (check::RunChecker* checker = bed->checker(); checker != nullptr) {
    result.check_violations = checker->log().total();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return {std::move(result), std::move(bed)};
}

SweepResult sweep(const BedFactory& factory, double lo, double hi,
                  double step, const MeasureOptions& options,
                  bool early_stop) {
  SweepResult result;
  int declining = 0;
  for (const double offered : load_grid(lo, hi, step)) {
    PointResult point = measure_point(factory, offered, options);
    if (point.throughput_cps > result.max_throughput_cps) {
      result.max_throughput_cps = point.throughput_cps;
      result.offered_at_max = offered;
      declining = 0;
    } else if (point.throughput_cps < 0.98 * result.max_throughput_cps) {
      ++declining;
    }
    result.points.push_back(std::move(point));
    if (early_stop && declining >= 2) break;
  }
  return result;
}

double find_saturation(const BedFactory& factory, double lo, double hi,
                       double step, const MeasureOptions& options) {
  return sweep(factory, lo, hi, step, options, /*early_stop=*/true)
      .max_throughput_cps;
}

SweepResult run_sweep_parallel(const BedFactory& factory, double lo,
                               double hi, double step,
                               const MeasureOptions& options,
                               std::size_t threads) {
  const std::vector<double> grid = load_grid(lo, hi, step);
  std::vector<PointResult> points(grid.size());
  parallel_for_index(threads, grid.size(), [&](std::size_t i) {
    points[i] = measure_point(factory, grid[i], options);
  });
  return fold_points(std::move(points));
}

std::vector<PointResult> run_points_parallel(
    const std::vector<std::function<PointResult()>>& jobs,
    std::size_t threads) {
  std::vector<PointResult> results(jobs.size());
  parallel_for_index(threads, jobs.size(),
                     [&](std::size_t i) { results[i] = jobs[i](); });
  return results;
}

double find_saturation_parallel(const BedFactory& factory, double lo,
                                double hi, double step,
                                const MeasureOptions& options,
                                std::size_t threads, double coarse_mult) {
  if (hi < lo) return 0.0;
  const double coarse =
      std::min(std::max(step * std::max(coarse_mult, 1.0), step), hi - lo);
  if (coarse <= 0.0) {  // degenerate range: a single point
    return measure_point(factory, lo, options).throughput_cps;
  }

  // Phase 1 — serial coarse bracket around the knee.
  const SweepResult bracket =
      sweep(factory, lo, hi, coarse, options, /*early_stop=*/true);
  double best = bracket.max_throughput_cps;
  double center = bracket.offered_at_max;

  // Phase 2 — bisect the bracket: each halving probes both flanks of the
  // current center concurrently and re-centers on the best point seen.
  for (double span = coarse / 2.0; span >= step - 1e-9; span /= 2.0) {
    std::vector<double> probes;
    if (center - span >= lo - 1e-9) probes.push_back(center - span);
    if (center + span <= hi + 1e-9) probes.push_back(center + span);
    if (probes.empty()) break;
    std::vector<PointResult> results(probes.size());
    parallel_for_index(threads, probes.size(), [&](std::size_t i) {
      results[i] = measure_point(factory, probes[i], options);
    });
    for (const PointResult& point : results) {
      if (point.throughput_cps > best) {
        best = point.throughput_cps;
        center = point.offered_cps;
      }
    }
  }
  return best;
}

}  // namespace svk::workload

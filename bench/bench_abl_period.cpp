// Ablation — sensitivity of SERvartuka to the Algorithm 2 monitoring
// period. The paper monitors "periodically" without studying the period;
// this sweep shows the trade: very short windows are noisy (the share is
// computed from few samples), very long windows react slowly.
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

struct PeriodPoint {
  double period_s;
  double throughput_cps;
};

// Offered just above the two-chain static knee, where the dynamic
// distribution is doing real work.
constexpr double kOffered = 10800.0;

constexpr double kPeriodsMs[] = {125.0, 250.0, 500.0, 1000.0, 2000.0,
                                 4000.0};

/// All periods are independent single-point simulations; fan them across
/// the runner's worker threads.
std::vector<PeriodPoint> run_periods() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const double period_ms : kPeriodsMs) {
    jobs.emplace_back([period_ms] {
      auto options = scenario(PolicyKind::kServartuka);
      options.controller_period =
          SimTime::millis(static_cast<std::int64_t>(period_ms));
      auto mo = measure_options();
      // Give slow controllers time to converge.
      mo.warmup = SimTime::seconds(6.0 + 10.0 * period_ms / 1000.0);
      return workload::measure_point(workload::series_chain(2, options),
                                     scaled(kOffered), mo);
    });
  }
  const auto results = workload::run_points_parallel(jobs, g_threads);
  std::vector<PeriodPoint> points;
  for (std::size_t i = 0; i < results.size(); ++i) {
    points.push_back(PeriodPoint{kPeriodsMs[i] / 1000.0,
                                 full(results[i].throughput_cps)});
  }
  return points;
}

void print_summary(const std::vector<PeriodPoint>& periods) {
  print_header("Ablation: monitoring period",
               "SERvartuka two-chain throughput at 10800 cps offered");
  std::printf("%-14s %18s\n", "period (s)", "throughput (cps)");
  for (const PeriodPoint& p : periods) {
    std::printf("%-14.3f %18.0f\n", p.period_s, p.throughput_cps);
  }
  std::printf("\n(the paper uses ~1 s windows; throughput should be flat"
              " around that value\n and degrade only for extreme periods)\n");
}

bool write_json(const std::vector<PeriodPoint>& periods) {
  BenchReport report("abl_period");
  JsonValue& points = report.root()["periods"];
  points = JsonValue::array();
  for (const PeriodPoint& p : periods) {
    JsonValue entry = JsonValue::object();
    entry["period_s"] = p.period_s;
    entry["throughput_cps"] = p.throughput_cps;
    points.push_back(std::move(entry));
  }
  report.add_metric("offered_cps", kOffered);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const std::vector<PeriodPoint> periods = run_periods();
  print_summary(periods);
  return write_json(periods) ? 0 : 1;
}

// Ablation — overload-control queueing bound.
//
// A finding of this reproduction: the proxy's queueing-delay bound (how
// much backlog it tolerates before answering 500 Server Busy) interacts
// with the SIP retransmission timers. If four queue traversals exceed T1
// (500 ms), UAS 200-OK retransmissions and UAC INVITE retransmissions keep
// a saturated queue saturated — a storm that pins throughput well below
// capacity. Bounds comfortably under T1/4 keep saturation graceful.
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

struct BoundPoint {
  double bound_ms;
  double static_tput;
  double dynamic_tput;
};

// Offered load just past the static chain's knee.
constexpr double kOffered = 9600.0;

constexpr double kBoundsMs[] = {25.0, 50.0, 100.0, 200.0, 400.0, 800.0};

std::function<workload::PointResult()> make_job(PolicyKind policy,
                                                double bound_ms) {
  return [policy, bound_ms] {
    auto options = scenario(policy);
    options.max_queue_delay =
        SimTime::millis(static_cast<std::int64_t>(bound_ms));
    auto mo = measure_options();
    mo.measure = SimTime::seconds(15.0);  // storms need time to show
    return workload::measure_point(workload::series_chain(2, options),
                                   scaled(kOffered), mo);
  };
}

/// Every (bound, policy) combination is an independent simulation; fan all
/// of them across the runner's worker threads at once.
std::vector<BoundPoint> run_bounds() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const double bound_ms : kBoundsMs) {
    jobs.push_back(make_job(PolicyKind::kStaticAllStateful, bound_ms));
    jobs.push_back(make_job(PolicyKind::kServartuka, bound_ms));
  }
  const auto results = workload::run_points_parallel(jobs, g_threads);
  std::vector<BoundPoint> points;
  for (std::size_t i = 0; i < std::size(kBoundsMs); ++i) {
    points.push_back(BoundPoint{kBoundsMs[i],
                                full(results[2 * i].throughput_cps),
                                full(results[2 * i + 1].throughput_cps)});
  }
  return points;
}

void print_summary(const std::vector<BoundPoint>& bounds) {
  print_header("Ablation: overload-control queue bound",
               "two-chain throughput at 9600 cps offered");
  std::printf("%-14s %16s %16s\n", "bound (ms)", "static (cps)",
              "SERvartuka (cps)");
  for (const BoundPoint& p : bounds) {
    std::printf("%-14.0f %16.0f %16.0f\n", p.bound_ms, p.static_tput,
                p.dynamic_tput);
  }
  std::printf("\n(T1 = 500 ms; bounds whose worst-case round trip exceeds"
              " T1 trigger\n retransmission storms that pin saturated"
              " queues — throughput collapses)\n");
}

bool write_json(const std::vector<BoundPoint>& bounds) {
  BenchReport report("abl_overload_control");
  JsonValue& points = report.root()["bounds"];
  points = JsonValue::array();
  for (const BoundPoint& p : bounds) {
    JsonValue entry = JsonValue::object();
    entry["bound_ms"] = p.bound_ms;
    entry["static_throughput_cps"] = p.static_tput;
    entry["servartuka_throughput_cps"] = p.dynamic_tput;
    points.push_back(std::move(entry));
  }
  report.add_metric("offered_cps", kOffered);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const std::vector<BoundPoint> bounds = run_bounds();
  print_summary(bounds);
  return write_json(bounds) ? 0 : 1;
}

// Section 6.1 (text) — three servers in series: static 8780 cps vs
// SERvartuka 10180 cps, a 16% improvement.
#include "bench_util.hpp"
#include "lp/state_model.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

double find_sat(PolicyKind policy) {
  const auto factory = workload::series_chain(3, scenario(policy));
  return find_saturation_full(factory, 7000.0, 13000.0, 500.0);
}

void print_summary(double static_sat, double dynamic_sat) {
  print_header("Three servers in series (Section 6.1)",
               "static vs SERvartuka saturation");

  lp::StateDistributionModel model;
  const auto s1 = model.add_node("s1", 10360.0, 12300.0);
  const auto s2 = model.add_node("s2", 10360.0, 12300.0);
  const auto s3 = model.add_node("s3", 10360.0, 12300.0);
  model.add_edge(s1, s2);
  model.add_edge(s2, s3);
  model.mark_entry(s1);
  model.mark_exit(s3);
  const auto lp_result = model.solve();

  std::printf("\npaper vs measured (saturation, cps):\n");
  print_paper_row("static configuration", 8780.0, static_sat);
  print_paper_row("SERvartuka", 10180.0, dynamic_sat);
  std::printf("  LP upper bound: %.0f cps\n", lp_result.max_throughput);
  std::printf("\nimprovement: paper +16%%, measured %+.0f%%\n",
              100.0 * (dynamic_sat / static_sat - 1.0));
}

bool write_json(double static_sat, double dynamic_sat) {
  BenchReport report("tbl_three_series");
  report.add_metric("static_saturation_cps", static_sat);
  report.add_metric("servartuka_saturation_cps", dynamic_sat);
  report.add_metric("paper_static_saturation_cps", 8780.0);
  report.add_metric("paper_servartuka_saturation_cps", 10180.0);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv, /*has_smoke_point=*/true);
  if (observability_requested()) {
    // One observed SERvartuka run near the paper's saturation point,
    // exporting trace + controller audit series.
    return run_traced_smoke(
        "tbl_three_series",
        workload::series_chain(3, scenario(PolicyKind::kServartuka)),
        10000.0);
  }
  const double static_sat = find_sat(PolicyKind::kStaticAllStateful);
  const double dynamic_sat = find_sat(PolicyKind::kServartuka);
  print_summary(static_sat, dynamic_sat);
  return write_json(static_sat, dynamic_sat) ? 0 : 1;
}

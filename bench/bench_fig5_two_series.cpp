// Figure 5 — "Two Servers in Series - Throughput": offered load vs call
// throughput for the static configuration and SERvartuka.
//
// Paper: static saturates at 8540 cps, SERvartuka at 9790 cps — a 15%
// improvement. (The static baseline is the deployment default, both nodes
// stateful; see EXPERIMENTS.md for why it lands well below the single-node
// stateful limit of 10360.) The LP bound for this topology is ~11240 cps.
#include "bench_util.hpp"
#include "lp/state_model.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

constexpr double kLo = 7000.0;
constexpr double kHi = 13000.0;
constexpr double kStep = 500.0;

Series run_chain(const char* name, PolicyKind policy) {
  return run_throughput_series(
      name, workload::series_chain(2, scenario(policy)), kLo, kHi, kStep);
}

void print_summary(const Series& static_sf, const Series& best_static,
                   const Series& dynamic) {
  print_header("Figure 5", "two servers in series — throughput");
  print_series_table("throughput vs offered load",
                     "calls/second, full-scale equivalents",
                     {static_sf, best_static, dynamic});
  print_ascii_chart("throughput (cps) vs offered load (cps)",
                    {static_sf, best_static, dynamic});

  lp::StateDistributionModel model;
  const auto s1 = model.add_node("s1", 10360.0, 12300.0);
  const auto s2 = model.add_node("s2", 10360.0, 12300.0);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s2);
  const auto lp_result = model.solve();

  std::printf("\npaper vs measured (saturation, cps):\n");
  print_paper_row("static configuration", 8540.0, static_sf.max_value);
  print_paper_row("SERvartuka", 9790.0, dynamic.max_value);
  print_paper_row("LP optimum (upper bound)", 11240.0,
                  lp_result.max_throughput);
  std::printf("\nimprovement: paper +15%%, measured %+.0f%%"
              " (best hand-tuned static: %.0f cps)\n",
              100.0 * (dynamic.max_value / static_sf.max_value - 1.0),
              best_static.max_value);
}

bool write_json(const Series& static_sf, const Series& best_static,
                const Series& dynamic) {
  BenchReport report("fig5_two_series");
  report.add_series(static_sf);
  report.add_series(best_static);
  report.add_series(dynamic);
  report.add_metric("static_saturation_cps", static_sf.max_value);
  report.add_metric("best_static_saturation_cps", best_static.max_value);
  report.add_metric("servartuka_saturation_cps", dynamic.max_value);
  report.add_metric("paper_static_saturation_cps", 8540.0);
  report.add_metric("paper_servartuka_saturation_cps", 9790.0);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv, /*has_smoke_point=*/true);
  if (observability_requested()) {
    // One observed SERvartuka run near the paper's saturation point,
    // exporting trace + controller audit series.
    return run_traced_smoke(
        "fig5_two_series",
        workload::series_chain(2, scenario(PolicyKind::kServartuka)), 9500.0);
  }
  const Series static_sf =
      run_chain("static(all-SF)", PolicyKind::kStaticAllStateful);
  const Series best_static =
      run_chain("static(one-SF)", PolicyKind::kStaticChainFirstStateful);
  const Series dynamic = run_chain("SERvartuka", PolicyKind::kServartuka);
  print_summary(static_sf, best_static, dynamic);
  return write_json(static_sf, best_static, dynamic) ? 0 : 1;
}

// Figure 8 — "Three Server Parallel Configuration": throughput vs offered
// load for a load-balancing fork (one entry, two exits, 50/50 split).
//
// Paper: static (entry stateless, both exits stateful) reaches 11990 cps;
// SERvartuka 12830. The paper's own LP says the standard static fork is
// already optimal ("in this configuration we cannot do better than servers
// that have been statically preconfigured") and the authors note they
// cannot explain SERvartuka's extra margin; we expect (and measure)
// near-parity, with the LP bound printed alongside.
#include "bench_util.hpp"
#include "lp/state_model.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

constexpr double kLo = 8000.0;
constexpr double kHi = 13000.0;
constexpr double kStep = 500.0;

Series run_fork(const char* name, PolicyKind policy) {
  return run_throughput_series(
      name, workload::parallel_fork(scenario(policy)), kLo, kHi, kStep);
}

void print_summary(const Series& static_fork, const Series& dynamic) {
  print_header("Figure 8", "three-server parallel (fork) configuration");
  print_series_table("throughput vs offered load",
                     "calls/second, full-scale equivalents",
                     {static_fork, dynamic});
  print_ascii_chart("throughput (cps) vs offered load (cps)",
                    {static_fork, dynamic});

  lp::StateDistributionModel model;
  const auto s0 = model.add_node("s0", 10360.0, 12300.0);
  const auto sa = model.add_node("sa", 10360.0, 12300.0);
  const auto sb = model.add_node("sb", 10360.0, 12300.0);
  model.add_edge(s0, sa);
  model.add_edge(s0, sb);
  model.mark_entry(s0);
  model.mark_exit(sa);
  model.mark_exit(sb);
  model.fix_split(s0, sa, 0.5);
  model.fix_split(s0, sb, 0.5);
  const auto lp_result = model.solve();

  std::printf("\npaper vs measured (saturation, cps):\n");
  print_paper_row("static fork", 11990.0, static_fork.max_value);
  print_paper_row("SERvartuka", 12830.0, dynamic.max_value);
  print_paper_row("LP bound", lp_result.max_throughput,
                  lp_result.max_throughput);
  std::printf("\nratio SERvartuka/static: paper 1.07, measured %.2f\n",
              dynamic.max_value / static_fork.max_value);
}

bool write_json(const Series& static_fork, const Series& dynamic) {
  BenchReport report("fig8_parallel");
  report.add_series(static_fork);
  report.add_series(dynamic);
  report.add_metric("static_saturation_cps", static_fork.max_value);
  report.add_metric("servartuka_saturation_cps", dynamic.max_value);
  report.add_metric("paper_static_saturation_cps", 11990.0);
  report.add_metric("paper_servartuka_saturation_cps", 12830.0);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const Series static_fork =
      run_fork("static(exits-SF)", PolicyKind::kStaticChainLastStateful);
  const Series dynamic = run_fork("SERvartuka", PolicyKind::kServartuka);
  print_summary(static_fork, dynamic);
  return write_json(static_fork, dynamic) ? 0 : 1;
}

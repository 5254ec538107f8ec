// Ablation — non-homogeneous fork (Section 6.2 text): when the entry
// server is much larger than the two exits, the static standard (entry
// stateless) is no longer right: the LP has the entry absorb most state,
// and SERvartuka should adapt without reconfiguration.
#include "bench_util.hpp"
#include "lp/state_model.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

constexpr double kEntryScale = 3.0;  // entry is 3x the exits

workload::ScenarioOptions hetero_options(PolicyKind policy) {
  auto options = scenario(policy);
  options.capacity_scale = {kScale * kEntryScale, kScale, kScale};
  return options;
}

double find_sat(PolicyKind policy) {
  const auto factory = workload::parallel_fork(hetero_options(policy));
  return find_saturation_full(factory, 12000.0, 26000.0, 1000.0);
}

/// Share of all stateful forwards done by the entry proxy in a SERvartuka
/// fork offered `offered_full` cps: where the state ends up at high load.
double entry_stateful_share(double offered_full) {
  auto bed = workload::parallel_fork(
      hetero_options(PolicyKind::kServartuka))(scaled(offered_full));
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(15.0));
  const auto& p0 = bed->proxies()[0]->stats();
  const auto& pa = bed->proxies()[1]->stats();
  const auto& pb = bed->proxies()[2]->stats();
  const double total = static_cast<double>(
      p0.forwarded_stateful + pa.forwarded_stateful + pb.forwarded_stateful);
  return total > 0.0 ? static_cast<double>(p0.forwarded_stateful) / total
                     : 0.0;
}

void print_summary(double static_sat, double dynamic_sat,
                   double entry_share) {
  print_header("Ablation: heterogeneous fork (Section 6.2)",
               "entry 3x the exits, 50/50 split");

  lp::StateDistributionModel model;
  const auto s0 =
      model.add_node("s0", kEntryScale * 10360.0, kEntryScale * 12300.0);
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

  std::printf("\nmeasured (saturation, cps):\n");
  std::printf("  static standard fork (entry stateless):   %10.0f\n",
              static_sat);
  std::printf("  SERvartuka:                               %10.0f\n",
              dynamic_sat);
  std::printf("  LP bound:                                 %10.0f"
              " (entry keeps %.0f cps of state)\n",
              lp_result.max_throughput, lp_result.node_stateful[0]);
  std::printf("  SERvartuka entry share of stateful calls: %10.2f\n",
              entry_share);
  std::printf("\n(Section 6.2: with a larger first server it is beneficial"
              " for the entry to\n maintain some or all state; SERvartuka"
              " adapts while the static standard cannot.)\n");
}

bool write_json(double static_sat, double dynamic_sat,
                double entry_share) {
  BenchReport report("abl_heterogeneous");
  report.add_metric("entry_capacity_scale", kEntryScale);
  report.add_metric("static_saturation_cps", static_sat);
  report.add_metric("servartuka_saturation_cps", dynamic_sat);
  report.add_metric("servartuka_entry_stateful_share", entry_share);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const double static_sat = find_sat(PolicyKind::kStaticChainLastStateful);
  const double dynamic_sat = find_sat(PolicyKind::kServartuka);
  const double entry_share = entry_stateful_share(dynamic_sat);
  print_summary(static_sat, dynamic_sat, entry_share);
  return write_json(static_sat, dynamic_sat, entry_share) ? 0 : 1;
}

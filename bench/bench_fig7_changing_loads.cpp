// Figure 7 — "Response to Varying Load Distribution": maximal throughput
// vs the fraction of external (two-hop) call load, for the static
// configuration and SERvartuka, with the LP prediction.
//
// Paper: SERvartuka >= static at every fraction; at 80% external the gap
// peaks (static 9540 vs SERvartuka 11410, ~20%; LP predicts 11960).
#include "bench_util.hpp"
#include "lp/state_model.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

struct FractionPoint {
  double fraction;
  double static_sat = 0.0;
  double dynamic_sat = 0.0;
  double lp_bound = 0.0;
};

double find_sat(PolicyKind policy, double fraction) {
  const auto factory =
      workload::two_series_with_internal(fraction, scenario(policy));
  return find_saturation_full(factory, 8000.0, 13000.0, 500.0);
}

double lp_bound(double fraction) {
  lp::StateDistributionModel model;
  const auto s1 = model.add_node("s1", 10360.0, 12300.0);
  const auto s2 = model.add_node("s2", 10360.0, 12300.0);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s1);  // internal flow exits at s1
  model.mark_exit(s2);
  model.fix_exit_split(s1, 1.0 - fraction);
  model.fix_split(s1, s2, fraction);
  const auto result = model.solve();
  return result.optimal() ? result.max_throughput : 0.0;
}

FractionPoint run_fraction(double fraction) {
  FractionPoint point;
  point.fraction = fraction;
  point.static_sat = find_sat(PolicyKind::kStaticAllStateful, fraction);
  point.dynamic_sat = find_sat(PolicyKind::kServartuka, fraction);
  point.lp_bound = lp_bound(fraction);
  return point;
}

void print_summary(const std::vector<FractionPoint>& points) {
  print_header("Figure 7", "maximal throughput vs external load fraction");
  std::printf("%-10s %14s %14s %14s\n", "fraction", "static", "SERvartuka",
              "LP bound");
  const FractionPoint* at80 = nullptr;
  for (const FractionPoint& p : points) {
    std::printf("%-10.1f %14.0f %14.0f %14.0f\n", p.fraction, p.static_sat,
                p.dynamic_sat, p.lp_bound);
    if (p.fraction > 0.75 && p.fraction < 0.85) at80 = &p;
  }
  Series st{"static", {}, 0.0, {}}, dy{"SERvartuka", {}, 0.0, {}},
      lp{"LP", {}, 0.0, {}};
  for (const FractionPoint& p : points) {
    st.points.emplace_back(p.fraction, p.static_sat);
    dy.points.emplace_back(p.fraction, p.dynamic_sat);
    lp.points.emplace_back(p.fraction, p.lp_bound);
  }
  print_ascii_chart("max throughput (cps) vs external fraction",
                    {st, dy, lp});

  if (at80 != nullptr) {
    std::printf("\npaper vs measured at the 80/20 split (cps):\n");
    print_paper_row("static configuration", 9540.0, at80->static_sat);
    print_paper_row("SERvartuka", 11410.0, at80->dynamic_sat);
    print_paper_row("LP prediction", 11960.0, at80->lp_bound);
    std::printf("\nimprovement at 80/20: paper ~+20%%, measured %+.0f%%\n",
                100.0 * (at80->dynamic_sat / at80->static_sat - 1.0));
  }
}

bool write_json(const std::vector<FractionPoint>& fractions) {
  BenchReport report("fig7_changing_loads");
  JsonValue& points = report.root()["fractions"];
  points = JsonValue::array();
  for (const FractionPoint& p : fractions) {
    JsonValue entry = JsonValue::object();
    entry["external_fraction"] = p.fraction;
    entry["static_saturation_cps"] = p.static_sat;
    entry["servartuka_saturation_cps"] = p.dynamic_sat;
    entry["lp_bound_cps"] = p.lp_bound;
    points.push_back(std::move(entry));
  }
  report.add_metric("paper_static_at_80_cps", 9540.0);
  report.add_metric("paper_servartuka_at_80_cps", 11410.0);
  report.add_metric("paper_lp_at_80_cps", 11960.0);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv, /*has_smoke_point=*/true);
  if (observability_requested()) {
    // One observed SERvartuka run at the paper's 80/20 split, exporting the
    // Chrome trace and the controller audit series.
    return run_traced_smoke("fig7_changing_loads",
                            workload::two_series_with_internal(
                                0.8, scenario(PolicyKind::kServartuka)),
                            10000.0);
  }
  std::vector<FractionPoint> points;
  for (int tenths = 0; tenths <= 10; ++tenths) {
    points.push_back(run_fraction(tenths / 10.0));
  }
  print_summary(points);
  return write_json(points) ? 0 : 1;
}

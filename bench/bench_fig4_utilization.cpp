// Figure 4 — "CPU Increasing Load Utilization": single-proxy CPU
// utilization vs offered load, stateful vs stateless configuration.
//
// Paper: both curves linear through the origin; the stateful server
// saturates at ~10360 cps, the stateless one at ~12300 cps.
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

/// Points are (offered cps, utilization %); max_value is the saturation
/// throughput.
Series run_utilization(const char* name, PolicyKind policy) {
  Series series;
  series.name = name;
  const auto factory = workload::single_proxy(scenario(policy, 1));
  // The paper sweeps 20..14000 cps in even steps.
  const auto sweep = workload::sweep(
      factory, scaled(1000.0), scaled(14000.0), scaled(1000.0),
      measure_options(), g_threads);
  for (const auto& point : sweep.points) {
    series.points.emplace_back(full(point.offered_cps),
                               100.0 * point.proxy_utilization[0]);
    series.records.push_back(full_record(point, name));
  }
  series.max_value = full(sweep.max_throughput_cps);
  return series;
}

void print_summary(const Series& stateful, const Series& stateless) {
  print_header("Figure 4", "CPU utilization vs offered load, single proxy");
  std::printf("%-14s %18s %18s\n", "offered(cps)", "stateful util%",
              "stateless util%");
  for (std::size_t i = 0; i < stateful.points.size(); ++i) {
    std::printf("%-14.0f %18.1f %18.1f\n", stateful.points[i].first,
                stateful.points[i].second, stateless.points[i].second);
  }
  print_ascii_chart("CPU utilization (%) vs offered load (cps)",
                    {stateful, stateless});

  std::printf("\npaper vs measured (saturation, cps):\n");
  print_paper_row("stateful saturation", 10360.0, stateful.max_value);
  print_paper_row("stateless saturation", 12300.0,
                  stateless.max_value);
}

bool write_json(const Series& stateful, const Series& stateless) {
  BenchReport report("fig4_utilization");
  for (const Series* s : {&stateful, &stateless}) {
    report.add_series(*s);
    report.add_metric(s->name + "_saturation_cps", s->max_value);
  }
  report.add_metric("paper_stateful_saturation_cps", 10360.0);
  report.add_metric("paper_stateless_saturation_cps", 12300.0);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const Series stateful =
      run_utilization("stateful", PolicyKind::kStaticAllStateful);
  const Series stateless =
      run_utilization("stateless", PolicyKind::kStaticAllStateless);
  print_summary(stateful, stateless);
  return write_json(stateful, stateless) ? 0 : 1;
}

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

struct UtilSeries {
  std::string name;
  std::vector<std::pair<double, double>> points;  // offered, util %
  double saturation_cps = 0.0;
  std::vector<RunRecord> records;
};
UtilSeries g_stateful;
UtilSeries g_stateless;

UtilSeries run_utilization(const char* name, PolicyKind policy) {
  UtilSeries series;
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
  series.saturation_cps = full(sweep.max_throughput_cps);
  return series;
}

void BM_Fig4_Stateful(benchmark::State& state) {
  for (auto _ : state) {
    g_stateful = run_utilization("stateful", PolicyKind::kStaticAllStateful);
  }
  state.counters["saturation_cps"] = g_stateful.saturation_cps;
}
BENCHMARK(BM_Fig4_Stateful)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Fig4_Stateless(benchmark::State& state) {
  for (auto _ : state) {
    g_stateless =
        run_utilization("stateless", PolicyKind::kStaticAllStateless);
  }
  state.counters["saturation_cps"] = g_stateless.saturation_cps;
}
BENCHMARK(BM_Fig4_Stateless)->Iterations(1)->Unit(benchmark::kMillisecond);

void print_summary() {
  print_header("Figure 4", "CPU utilization vs offered load, single proxy");
  std::printf("%-14s %18s %18s\n", "offered(cps)", "stateful util%",
              "stateless util%");
  for (std::size_t i = 0; i < g_stateful.points.size(); ++i) {
    std::printf("%-14.0f %18.1f %18.1f\n", g_stateful.points[i].first,
                g_stateful.points[i].second, g_stateless.points[i].second);
  }
  Series sf{"stateful", g_stateful.points, 0.0, {}};
  Series sl{"stateless", g_stateless.points, 0.0, {}};
  print_ascii_chart("CPU utilization (%) vs offered load (cps)", {sf, sl});

  std::printf("\npaper vs measured (saturation, cps):\n");
  print_paper_row("stateful saturation", 10360.0, g_stateful.saturation_cps);
  print_paper_row("stateless saturation", 12300.0,
                  g_stateless.saturation_cps);
}

void write_json() {
  BenchReport report("fig4_utilization");
  for (const UtilSeries* s : {&g_stateful, &g_stateless}) {
    Series series{s->name, s->points, s->saturation_cps, s->records};
    report.add_series(series);
    report.add_metric(s->name + "_saturation_cps", s->saturation_cps);
  }
  report.add_metric("paper_stateful_saturation_cps", 10360.0);
  report.add_metric("paper_stateless_saturation_cps", 12300.0);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  write_json();
  return 0;
}

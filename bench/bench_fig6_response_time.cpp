// Figure 6 — "Two Servers in Series - Response Times": call setup latency
// vs offered load for the static stateful configuration, SERvartuka, and a
// fully stateless chain.
//
// Paper shape: the stateful configuration bounds response times under
// ~200 ms up to its (low) saturation point; the stateless chain stays fast
// until its higher saturation and then spikes (lost messages must be
// recovered end-to-end); SERvartuka keeps stateful-like response times
// while pushing saturation higher.
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

struct RtSeries {
  std::string name;
  // offered -> (mean ms, p90 ms, throughput)
  std::vector<std::tuple<double, double, double, double>> points;
  std::vector<RunRecord> records;
};
RtSeries g_stateful;
RtSeries g_dynamic;
RtSeries g_stateless;

RtSeries run_rt(const char* name, PolicyKind policy) {
  RtSeries series;
  series.name = name;
  const auto factory = workload::series_chain(2, scenario(policy));
  const auto sweep = workload::sweep(
      factory, scaled(7000.0), scaled(13500.0), scaled(500.0),
      measure_options(), g_threads);
  for (const auto& point : sweep.points) {
    series.points.emplace_back(full(point.offered_cps), point.setup_ms_mean,
                               point.setup_ms_p90,
                               full(point.throughput_cps));
    series.records.push_back(full_record(point, name));
  }
  return series;
}

void BM_Fig6_StaticStateful(benchmark::State& state) {
  for (auto _ : state) {
    g_stateful = run_rt("stateful", PolicyKind::kStaticAllStateful);
  }
}
BENCHMARK(BM_Fig6_StaticStateful)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Fig6_Servartuka(benchmark::State& state) {
  for (auto _ : state) {
    g_dynamic = run_rt("SERvartuka", PolicyKind::kServartuka);
  }
}
BENCHMARK(BM_Fig6_Servartuka)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Fig6_Stateless(benchmark::State& state) {
  for (auto _ : state) {
    g_stateless = run_rt("stateless", PolicyKind::kStaticAllStateless);
  }
}
BENCHMARK(BM_Fig6_Stateless)->Iterations(1)->Unit(benchmark::kMillisecond);

void print_summary() {
  print_header("Figure 6", "two servers in series — response times");
  std::printf("%-13s | %-21s | %-21s | %-21s\n", "", "stateful static",
              "SERvartuka", "stateless static");
  std::printf("%-13s | %10s %10s | %10s %10s | %10s %10s\n", "offered(cps)",
              "mean(ms)", "p90(ms)", "mean(ms)", "p90(ms)", "mean(ms)",
              "p90(ms)");
  for (std::size_t i = 0; i < g_stateful.points.size(); ++i) {
    std::printf("%-13.0f | %10.1f %10.1f | %10.1f %10.1f | %10.1f %10.1f\n",
                std::get<0>(g_stateful.points[i]),
                std::get<1>(g_stateful.points[i]),
                std::get<2>(g_stateful.points[i]),
                std::get<1>(g_dynamic.points[i]),
                std::get<2>(g_dynamic.points[i]),
                std::get<1>(g_stateless.points[i]),
                std::get<2>(g_stateless.points[i]));
  }

  {
    bench::Series sf{"stateful", {}, 0.0, {}}, dy{"SERvartuka", {}, 0.0, {}},
        sl{"stateless", {}, 0.0, {}};
    for (const auto& [offered, mean, p90, tput] : g_stateful.points) {
      sf.points.emplace_back(offered, mean);
    }
    for (const auto& [offered, mean, p90, tput] : g_dynamic.points) {
      dy.points.emplace_back(offered, mean);
    }
    for (const auto& [offered, mean, p90, tput] : g_stateless.points) {
      sl.points.emplace_back(offered, mean);
    }
    print_ascii_chart("mean setup time (ms) vs offered load (cps)",
                      {sf, dy, sl});
  }

  // Shape checks the paper calls out: the stateful and SERvartuka
  // configurations bound response times (the paper: under ~200 ms) across
  // the whole sweep, while the stateless chain spikes once it saturates
  // (lost messages must be recovered end-to-end).
  auto worst = [](const RtSeries& s, double lo, double hi) {
    double w = 0.0;
    for (const auto& [offered, mean, p90, tput] : s.points) {
      if (offered >= lo && offered <= hi && mean > w) w = mean;
    }
    return w;
  };
  std::printf("\nshape checks (paper: Figure 6):\n");
  std::printf("  stateful static worst mean RT over sweep:  %7.1f ms"
              "  (paper: bounded <~200)\n",
              worst(g_stateful, 0.0, 1e9));
  std::printf("  SERvartuka worst mean RT up to 11500 cps:  %7.1f ms"
              "  (paper: stateful-like)\n",
              worst(g_dynamic, 0.0, 11500.0));
  std::printf("  stateless mean RT at 12000 / 13000 cps:    %7.1f /"
              " %.1f ms  (paper: low, then spikes)\n",
              worst(g_stateless, 12000.0, 12000.0),
              worst(g_stateless, 13000.0, 13000.0));
}

void write_json() {
  BenchReport report("fig6_response_time");
  for (const RtSeries* s : {&g_stateful, &g_dynamic, &g_stateless}) {
    Series series{s->name, {}, 0.0, s->records};
    for (const auto& [offered, mean, p90, tput] : s->points) {
      series.points.emplace_back(offered, mean);
    }
    report.add_series(series);
  }
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

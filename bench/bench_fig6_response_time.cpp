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

/// The plotted series: mean setup time (ms) vs offered load.
Series mean_rt_series(const RtSeries& rt) {
  Series series{rt.name, {}, 0.0, rt.records};
  for (const auto& [offered, mean, p90, tput] : rt.points) {
    series.points.emplace_back(offered, mean);
  }
  return series;
}

void print_summary(const RtSeries& stateful, const RtSeries& dynamic,
                   const RtSeries& stateless) {
  print_header("Figure 6", "two servers in series — response times");
  std::printf("%-13s | %-21s | %-21s | %-21s\n", "", "stateful static",
              "SERvartuka", "stateless static");
  std::printf("%-13s | %10s %10s | %10s %10s | %10s %10s\n", "offered(cps)",
              "mean(ms)", "p90(ms)", "mean(ms)", "p90(ms)", "mean(ms)",
              "p90(ms)");
  for (std::size_t i = 0; i < stateful.points.size(); ++i) {
    std::printf("%-13.0f | %10.1f %10.1f | %10.1f %10.1f | %10.1f %10.1f\n",
                std::get<0>(stateful.points[i]),
                std::get<1>(stateful.points[i]),
                std::get<2>(stateful.points[i]),
                std::get<1>(dynamic.points[i]),
                std::get<2>(dynamic.points[i]),
                std::get<1>(stateless.points[i]),
                std::get<2>(stateless.points[i]));
  }

  print_ascii_chart("mean setup time (ms) vs offered load (cps)",
                    {mean_rt_series(stateful), mean_rt_series(dynamic),
                     mean_rt_series(stateless)});

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
              worst(stateful, 0.0, 1e9));
  std::printf("  SERvartuka worst mean RT up to 11500 cps:  %7.1f ms"
              "  (paper: stateful-like)\n",
              worst(dynamic, 0.0, 11500.0));
  std::printf("  stateless mean RT at 12000 / 13000 cps:    %7.1f /"
              " %.1f ms  (paper: low, then spikes)\n",
              worst(stateless, 12000.0, 12000.0),
              worst(stateless, 13000.0, 13000.0));
}

bool write_json(const RtSeries& stateful, const RtSeries& dynamic,
                const RtSeries& stateless) {
  BenchReport report("fig6_response_time");
  for (const RtSeries* s : {&stateful, &dynamic, &stateless}) {
    report.add_series(mean_rt_series(*s));
  }
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const RtSeries stateful = run_rt("stateful", PolicyKind::kStaticAllStateful);
  const RtSeries dynamic = run_rt("SERvartuka", PolicyKind::kServartuka);
  const RtSeries stateless =
      run_rt("stateless", PolicyKind::kStaticAllStateless);
  print_summary(stateful, dynamic, stateless);
  return write_json(stateful, dynamic, stateless) ? 0 : 1;
}

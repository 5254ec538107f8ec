// Quickstart — build a two-proxy SERvartuka deployment, place calls
// through it, and read out the metrics the library exposes.
//
//   $ ./quickstart [offered_cps]
//
// Demonstrates the core public API: TestBed assembly (network, proxies,
// route tables, location service), the SERvartuka controller as the
// per-proxy state policy, UAC/UAS load generation, and the measurement
// runner.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/controller.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

using namespace svk;

int main(int argc, char** argv) {
  // All rates here are full-scale calls/second on the calibrated node
  // model (stateful saturation ~10360 cps, stateless ~12300 cps).
  const double offered = argc > 1 ? std::atof(argv[1]) : 10800.0;

  // --- 1. Describe the deployment ----------------------------------------
  // Two proxies in series, each running the SERvartuka dynamic state
  // distribution controller with the paper's thresholds.
  workload::ScenarioOptions options;
  options.policy = workload::PolicyKind::kServartuka;
  options.t_sf_cps = 10360.0;
  options.t_sl_cps = 12300.0;
  options.controller_period = SimTime::seconds(1.0);

  const workload::BedFactory factory = workload::series_chain(2, options);

  // --- 2. Run one measured load point -------------------------------------
  workload::MeasureOptions measure;
  measure.warmup = SimTime::seconds(10.0);   // let Algorithm 2 converge
  measure.measure = SimTime::seconds(10.0);

  std::printf("quickstart: 2-proxy SERvartuka chain, offering %.0f cps...\n",
              offered);
  const workload::PointResult result =
      workload::measure_point(factory, offered, measure);

  // --- 3. Read the results -------------------------------------------------
  std::printf("\n  offered:        %8.0f cps\n", result.offered_cps);
  std::printf("  throughput:     %8.0f cps (completed at the UAS farm)\n",
              result.throughput_cps);
  std::printf("  setup time:     %8.1f ms mean, %.1f ms p90\n",
              result.setup_ms_mean, result.setup_ms_p90);
  std::printf("  failures:       %8llu (500 Server Busy: %llu)\n",
              static_cast<unsigned long long>(result.calls_failed),
              static_cast<unsigned long long>(result.busy_500));
  for (std::size_t i = 0; i < result.proxy_utilization.size(); ++i) {
    std::printf("  proxy%zu:         %7.1f%% CPU, %llu stateful / %llu"
                " stateless forwards\n",
                i, 100.0 * result.proxy_utilization[i],
                static_cast<unsigned long long>(result.proxy_stateful[i]),
                static_cast<unsigned long long>(result.proxy_stateless[i]));
  }

  // --- 4. Peek inside a live controller ------------------------------------
  // Build a bed directly (instead of through the runner) to inspect
  // internals while the simulation runs.
  auto bed = factory(offered);
  bed->start_load();
  bed->run_until(SimTime::seconds(8.0));
  const auto& entry =
      dynamic_cast<const core::Controller&>(bed->proxies()[0]->policy());
  std::printf("\n  entry controller after 8s: load %.0f req/s, feasible"
              " stateful budget %.0f req/s\n",
              entry.last_total_rate(), entry.last_budget_rate());
  for (std::size_t p = 0; p < entry.paths().size(); ++p) {
    const auto& path = entry.paths()[p];
    std::printf("    path %zu: %s, stateful fraction %.2f%s\n", p,
                path.delegable ? "delegable" : "exit", path.sf_fraction,
                path.overloaded ? " (downstream frozen)" : "");
  }
  return 0;
}

// Golden-digest regression suite (ctest -L golden): one representative
// quick-mode load point per bench_fig* scenario, digested (MD5 of the
// serialized RunRecord, host wall clock zeroed) and compared against the
// seed digests checked in at tests/golden_digests.json.
//
// Any change to the simulator core, SIP stack, proxies, controller, or
// runner that alters simulation results — intentionally or not — flips a
// digest here and fails this suite. To bless intentional changes,
// regenerate the file and commit it alongside the change:
//
//   SVK_UPDATE_GOLDEN=1 ./tests/golden_digest_test
//
// The scenarios mirror the bench_fig* binaries at 1/100 scale with a short
// warmup/measure window, so the whole suite runs in seconds while still
// exercising every topology and policy the figures use. Every scenario
// also runs under the conformance checker, which must stay silent and
// leave the digest unchanged.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/md5.hpp"
#include "common/sim_time.hpp"
#include "generators.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk::workload {
namespace {

constexpr double kScale = 0.01;

#ifndef SVK_TEST_SOURCE_DIR
#error "SVK_TEST_SOURCE_DIR must point at the tests/ source directory"
#endif
const char kGoldenPath[] = SVK_TEST_SOURCE_DIR "/golden_digests.json";

ScenarioOptions scaled_options(PolicyKind policy, std::size_t num_proxies) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale.assign(num_proxies, kScale);
  options.controller_period = SimTime::seconds(0.5);
  return options;
}

struct GoldenScenario {
  std::string name;
  BedFactory factory;
  double offered_cps;  // scaled units
  /// Runs with the observability layer on, so the RunRecord carries the
  /// controller audit windows.
  bool observe = false;
  /// Whether the exactly-one-stateful run invariant applies (an
  /// all-stateless configuration breaks it by design).
  bool single_stateful = true;
};

/// The representative point for each figure: same topology/policy as the
/// bench binary, one offered load near the interesting region of the plot.
std::vector<GoldenScenario> golden_scenarios() {
  std::vector<GoldenScenario> scenarios;

  // Figure 3/4: single proxy, the stateful and stateless extremes.
  scenarios.push_back({"fig3_single_all_stateful",
                       single_proxy(scaled_options(
                           PolicyKind::kStaticAllStateful, 1)),
                       90.0});
  scenarios.push_back({"fig4_single_all_stateless",
                       single_proxy(scaled_options(
                           PolicyKind::kStaticAllStateless, 1)),
                       110.0, /*observe=*/false, /*single_stateful=*/false});

  // Figure 5: two in series, today's static config vs the controller.
  scenarios.push_back({"fig5_two_series_static",
                       series_chain(2, scaled_options(
                           PolicyKind::kStaticChainFirstStateful, 2)),
                       95.0});
  scenarios.push_back({"fig5_two_series_servartuka",
                       series_chain(2, scaled_options(
                           PolicyKind::kServartuka, 2)),
                       110.0});
  scenarios.push_back({"fig5_two_series_servartuka_observed",
                       series_chain(2, scaled_options(
                           PolicyKind::kServartuka, 2)),
                       110.0, /*observe=*/true});

  // Figure 6: response time on the two-series chain (the record carries
  // setup_ms_mean/p90, so latency regressions flip this digest too).
  scenarios.push_back({"fig6_two_series_last_stateful",
                       series_chain(2, scaled_options(
                           PolicyKind::kStaticChainLastStateful, 2)),
                       90.0});

  // Figure 7: changing loads — 80% of calls traverse both proxies.
  scenarios.push_back({"fig7_changing_loads_servartuka",
                       two_series_with_internal(
                           0.8, scaled_options(PolicyKind::kServartuka, 2)),
                       105.0});
  {
    // A seeded random fault schedule (crash, partition, bursts, cpu
    // degrade) against the two-series topology.
    chaos::FaultScheduleOptions fopt;
    fopt.crashable = {"proxy1.example.net"};
    fopt.degradable = {"proxy0.example.net", "proxy1.example.net"};
    fopt.links = {{"proxy0.example.net", "proxy1.example.net"}};
    fopt.window_start_s = 0.5;
    fopt.window_end_s = 2.5;
    ScenarioOptions options = scaled_options(PolicyKind::kServartuka, 2);
    options.seed = 7;
    options.faults = chaos::generate_fault_schedule(7, fopt);
    scenarios.push_back({"fig7_chaos_seed7",
                         two_series_with_internal(0.7, options), 115.0});
  }

  // Figure 8: three-server parallel fork, and the 16-exit wide fork.
  scenarios.push_back({"fig8_parallel_fork_servartuka",
                       parallel_fork(
                           scaled_options(PolicyKind::kServartuka, 3)),
                       110.0});
  {
    ScenarioOptions options =
        scaled_options(PolicyKind::kStaticChainLastStateful, 17);
    options.num_uacs = 4;
    options.num_uas = 4;
    scenarios.push_back({"fig8_wide_fork_16", wide_fork(16, options), 80.0});
  }
  return scenarios;
}

PointResult run_scenario(const GoldenScenario& scenario, bool check) {
  MeasureOptions options;
  options.warmup = SimTime::seconds(1.0);
  options.measure = SimTime::seconds(2.0);
  options.observe = scenario.observe;
  options.check = check;
  options.check_options.expect_single_stateful = scenario.single_stateful;
  return measure_point(scenario.factory, scenario.offered_cps, options);
}

std::string digest_of(const GoldenScenario& scenario,
                      const PointResult& point) {
  RunRecord record = to_run_record(point, 1.0, scenario.name);
  record.wall_seconds = 0.0;  // host noise, not simulation output
  return Md5::hex(record.to_json().dump());
}

std::string compute_digest(const GoldenScenario& scenario) {
  return digest_of(scenario, run_scenario(scenario, /*check=*/false));
}

TEST(GoldenDigestTest, BenchScenariosMatchCheckedInDigests) {
  const std::vector<GoldenScenario> scenarios = golden_scenarios();

  if (std::getenv("SVK_UPDATE_GOLDEN") != nullptr) {
    JsonValue root = JsonValue::object();
    root["schema_version"] = 1;
    root["comment"] =
        "MD5 of each scenario's quick-mode RunRecord (wall_seconds zeroed). "
        "Regenerate with SVK_UPDATE_GOLDEN=1 ./tests/golden_digest_test.";
    JsonValue& digests = root["digests"];
    digests = JsonValue::object();
    for (const GoldenScenario& scenario : scenarios) {
      digests[scenario.name] = compute_digest(scenario);
    }
    ASSERT_TRUE(root.write_file(kGoldenPath));
    std::printf("golden digests regenerated at %s\n", kGoldenPath);
    return;
  }

  const auto parsed = JsonValue::parse_file(kGoldenPath);
  ASSERT_TRUE(parsed.has_value())
      << "missing or malformed " << kGoldenPath
      << " — regenerate with SVK_UPDATE_GOLDEN=1 ./tests/golden_digest_test";
  const JsonValue* digests = parsed->find("digests");
  ASSERT_NE(digests, nullptr);

  // Every scenario must be present and match; the file must not carry
  // stale entries for scenarios that no longer exist.
  EXPECT_EQ(digests->size(), scenarios.size())
      << "scenario set changed — regenerate golden_digests.json";
  for (const GoldenScenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    const JsonValue* expected = digests->find(scenario.name);
    ASSERT_NE(expected, nullptr) << "no golden digest for " << scenario.name;
    ASSERT_TRUE(expected->as_string().has_value());
    EXPECT_EQ(compute_digest(scenario), *expected->as_string());
  }
}

TEST(GoldenDigestTest, CheckedRunsAreCleanAndDigestIdentical) {
  for (const GoldenScenario& scenario : golden_scenarios()) {
    SCOPED_TRACE(scenario.name);
    const PointResult checked = run_scenario(scenario, /*check=*/true);
    EXPECT_EQ(checked.check_violations, 0u);
    EXPECT_EQ(digest_of(scenario, checked), compute_digest(scenario));
  }
}

}  // namespace
}  // namespace svk::workload

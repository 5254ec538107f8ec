// Workload-layer tests: UAC/UAS call flows through real proxies, metrics
// accounting, the measurement runner and saturation behaviour of a single
// calibrated node (scaled down for test speed).
#include <gtest/gtest.h>

#include <memory>

#include "workload/runner.hpp"
#include "workload/scenarios.hpp"
#include "workload/testbed.hpp"

namespace svk::workload {
namespace {

/// All saturation tests run on 1/100-scale nodes: T_SF ~ 103.6 cps,
/// T_SL ~ 123 cps, so a few simulated seconds suffice.
constexpr double kScale = 0.01;

ScenarioOptions scaled_options(PolicyKind policy) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale = {kScale, kScale, kScale, kScale};
  return options;
}

// ---------------------------------------------------------------------------
// Basic call flow
// ---------------------------------------------------------------------------

TEST(CallFlowTest, CallsCompleteThroughStatefulProxy) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  auto bed = factory(10.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(5.0));

  EXPECT_GE(bed->total_attempted_calls(), 45u);
  // Everything offered completes at this trivial load.
  EXPECT_GE(bed->total_completed_calls(), bed->total_attempted_calls() - 4);

  std::uint64_t trying = 0;
  std::uint64_t failed = 0;
  for (const auto& uac : bed->uacs()) {
    trying += uac->metrics().trying_received;
    failed += uac->metrics().calls_failed;
  }
  // Stateful proxy: one 100 Trying per call (the paper's witness check).
  EXPECT_GE(trying, bed->total_attempted_calls() - 4);
  EXPECT_EQ(failed, 0u);
}

TEST(CallFlowTest, StatelessProxyGeneratesNoTrying) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateless));
  auto bed = factory(10.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(5.0));

  EXPECT_GE(bed->total_completed_calls(), bed->total_attempted_calls() - 4);
  for (const auto& uac : bed->uacs()) {
    EXPECT_EQ(uac->metrics().trying_received, 0u);
    // UAS's own 180/200 still arrive.
    EXPECT_GT(uac->metrics().ringing_received, 0u);
  }
}

TEST(CallFlowTest, UasMetricsConsistent) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  auto bed = factory(20.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(5.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(8.0));

  std::uint64_t invites = 0, established = 0, completed = 0, byes = 0;
  for (const auto& uas : bed->uases()) {
    invites += uas->metrics().invites_received;
    established += uas->metrics().calls_established;
    completed += uas->metrics().calls_completed;
    byes += uas->metrics().byes_received;
  }
  EXPECT_EQ(invites, bed->total_attempted_calls());
  EXPECT_EQ(established, invites);  // every INVITE got its ACK
  EXPECT_EQ(completed, byes);
  EXPECT_EQ(completed, invites);    // every call was torn down
}

TEST(CallFlowTest, OpenCallsDrainAfterStop) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  auto bed = factory(50.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(2.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(6.0));
  for (const auto& uac : bed->uacs()) {
    EXPECT_EQ(uac->open_calls(), 0u);
    EXPECT_EQ(uac->metrics().retransmissions, 0u);  // clean network
  }
}

TEST(CallFlowTest, HoldTimeDelaysBye) {
  TestBed bed(3);
  const Address proxy_addr = bed.declare_host("proxy0.example.net");
  proxy::RouteTable routes;
  routes.add_local("callee.example.net");
  proxy::ProxyConfig config;
  config.host = "proxy0.example.net";
  bed.add_proxy(std::move(config), std::move(routes),
                std::make_unique<proxy::AlwaysStateful>());
  bed.add_uas(UasConfig{"uas0.callee.example.net", Address{}, {}});
  bed.register_users("callee.example.net", 2, {"uas0.callee.example.net"});

  UacConfig uac_config;
  uac_config.host = "uac0.client.net";
  uac_config.first_hop = proxy_addr;
  uac_config.target_domain = "callee.example.net";
  uac_config.call_rate_cps = 10.0;
  uac_config.hold_time = SimTime::seconds(2.0);
  Uac& uac = bed.add_uac(std::move(uac_config));

  uac.start();
  bed.sim().run_until(SimTime::seconds(1.5));
  // Calls established but BYEs still pending: calls stay open.
  EXPECT_GT(uac.open_calls(), 5u);
  EXPECT_EQ(uac.metrics().calls_completed, 0u);
  bed.sim().run_until(SimTime::seconds(4.0));
  EXPECT_GT(uac.metrics().calls_completed, 0u);
}

TEST(CallFlowTest, PoissonArrivalsComplete) {
  ScenarioOptions options = scaled_options(PolicyKind::kStaticAllStateful);
  options.poisson_arrivals = true;
  const BedFactory factory = single_proxy(options);
  auto bed = factory(20.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(5.0));
  EXPECT_GT(bed->total_completed_calls(), 60u);
}

TEST(CallFlowTest, AuthenticatedScenarioCompletes) {
  ScenarioOptions options = scaled_options(PolicyKind::kStaticAllStateful);
  options.authenticate = true;
  options.stateful_mode = profile::HandlingMode::kDialogStatefulAuth;
  const BedFactory factory = single_proxy(options);
  auto bed = factory(10.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(5.0));
  EXPECT_GE(bed->total_completed_calls(), 40u);
  EXPECT_EQ(bed->proxies()[0]->stats().auth_failures, 0u);
  EXPECT_GT(bed->proxies()[0]->profiler().events(profile::CostBlock::kAuth),
            0.0);
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

TEST(RunnerTest, MeasurePointBelowSaturation) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateless));
  const PointResult point = measure_point(factory, 50.0);
  EXPECT_NEAR(point.offered_cps, 50.0, 1e-9);
  EXPECT_NEAR(point.throughput_cps, 50.0, 2.5);
  EXPECT_GT(point.goodput_ratio, 0.95);
  EXPECT_EQ(point.busy_500, 0u);
  ASSERT_EQ(point.proxy_utilization.size(), 1u);
  // Stateless node at ~123 cps capacity: 50 cps ~ 40% utilization.
  EXPECT_NEAR(point.proxy_utilization[0], 50.0 / 123.0, 0.05);
  EXPECT_GT(point.setup_ms_mean, 0.0);
  EXPECT_LT(point.setup_ms_mean, 50.0);
}

TEST(RunnerTest, UtilizationScalesLinearlyWithLoad) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  const PointResult p30 = measure_point(factory, 30.0);
  const PointResult p60 = measure_point(factory, 60.0);
  ASSERT_GT(p30.proxy_utilization[0], 0.0);
  EXPECT_NEAR(p60.proxy_utilization[0] / p30.proxy_utilization[0], 2.0, 0.15);
}

TEST(RunnerTest, OverloadedPointShowsRejections) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  // ~160 cps offered against a ~103 cps stateful node.
  const PointResult point = measure_point(factory, 160.0);
  EXPECT_LT(point.throughput_cps, 125.0);
  EXPECT_GT(point.busy_500, 0u);
  EXPECT_GT(point.proxy_rejected[0], 0u);
  EXPECT_GT(point.proxy_utilization[0], 0.97);
}

TEST(RunnerTest, SweepFindsStatefulSaturationNearCalibration) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  const SweepResult result = sweep(factory, 60.0, 140.0, 20.0);
  // T_SF at 1/100 scale is ~103.6 cps.
  EXPECT_NEAR(result.max_throughput_cps, 103.6, 8.0);
}

TEST(RunnerTest, StatelessSaturatesHigherThanStateful) {
  const double stateful = find_saturation(
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful)), 60.0,
      160.0, 20.0);
  const double stateless = find_saturation(
      single_proxy(scaled_options(PolicyKind::kStaticAllStateless)), 60.0,
      160.0, 20.0);
  EXPECT_GT(stateless, stateful * 1.1);
  EXPECT_NEAR(stateless, 123.0, 10.0);
}

TEST(RunnerTest, EarlyStopDoesNotUnderestimate) {
  // The coarse scan stops early past the knee; the bisection must still
  // land on the full sweep's maximum.
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  const SweepResult full = sweep(factory, 60.0, 160.0, 20.0);
  const double stopped = find_saturation(factory, 60.0, 160.0, 20.0);
  EXPECT_NEAR(stopped, full.max_throughput_cps, 2.0);
}

// ---------------------------------------------------------------------------
// Parallel runner
// ---------------------------------------------------------------------------

/// Every simulation-derived field must match bit-for-bit; only the host
/// wall-clock may differ between serial and parallel runs.
void expect_points_identical(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.offered_cps, b.offered_cps);
  EXPECT_EQ(a.throughput_cps, b.throughput_cps);
  EXPECT_EQ(a.attempted_cps, b.attempted_cps);
  EXPECT_EQ(a.goodput_ratio, b.goodput_ratio);
  EXPECT_EQ(a.setup_ms_mean, b.setup_ms_mean);
  EXPECT_EQ(a.setup_ms_p50, b.setup_ms_p50);
  EXPECT_EQ(a.setup_ms_p90, b.setup_ms_p90);
  EXPECT_EQ(a.setup_ms_p99, b.setup_ms_p99);
  EXPECT_EQ(a.calls_failed, b.calls_failed);
  EXPECT_EQ(a.busy_500, b.busy_500);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.trying_received, b.trying_received);
  EXPECT_EQ(a.calls_established_uac, b.calls_established_uac);
  EXPECT_EQ(a.proxy_utilization, b.proxy_utilization);
  EXPECT_EQ(a.proxy_rejected, b.proxy_rejected);
  EXPECT_EQ(a.proxy_stateful, b.proxy_stateful);
  EXPECT_EQ(a.proxy_stateless, b.proxy_stateless);
}

/// Every `sweep` point, at 1 and at 4 threads, equals `measure_point` at
/// that load.
void expect_sweep_matches_points(const BedFactory& factory, double lo,
                                 double hi, double step,
                                 const MeasureOptions& options) {
  const SweepResult one = sweep(factory, lo, hi, step, options, 1);
  const SweepResult four = sweep(factory, lo, hi, step, options, 4);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    SCOPED_TRACE(i);
    const PointResult serial =
        measure_point(factory, one.points[i].offered_cps, options);
    expect_points_identical(one.points[i], serial);
    expect_points_identical(four.points[i], serial);
  }
  EXPECT_EQ(one.max_throughput_cps, four.max_throughput_cps);
  EXPECT_EQ(one.offered_at_max, four.offered_at_max);
}

TEST(ParallelRunnerTest, SweepMatchesSerialBitForBit) {
  MeasureOptions options;
  options.warmup = SimTime::seconds(1.0);
  options.measure = SimTime::seconds(2.0);
  expect_sweep_matches_points(
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful)), 40.0,
      130.0, 15.0, options);
}

TEST(ParallelRunnerTest, SingleThreadSweepAlsoMatches) {
  MeasureOptions options;
  options.warmup = SimTime::seconds(1.0);
  options.measure = SimTime::seconds(2.0);
  expect_sweep_matches_points(
      single_proxy(scaled_options(PolicyKind::kStaticAllStateless)), 100.0,
      140.0, 10.0, options);
}

TEST(ParallelRunnerTest, FindSaturationParallelNearSerial) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateful));
  MeasureOptions options;
  options.warmup = SimTime::seconds(1.0);
  options.measure = SimTime::seconds(2.0);
  const SweepResult full = sweep(factory, 60.0, 160.0, 10.0, options);
  const double one = find_saturation(factory, 60.0, 160.0, 10.0, options, 1);
  const double four = find_saturation(factory, 60.0, 160.0, 10.0, options, 4);
  // Bisection probes off the sweep grid; it must land on the same
  // saturation plateau (~103.6 cps at this scale) at any thread count.
  EXPECT_EQ(one, four);
  EXPECT_NEAR(four, full.max_throughput_cps, 6.0);
  EXPECT_NEAR(four, 103.6, 8.0);
}

TEST(ParallelRunnerTest, RunPointsParallelKeepsJobOrder) {
  const BedFactory factory =
      single_proxy(scaled_options(PolicyKind::kStaticAllStateless));
  MeasureOptions options;
  options.warmup = SimTime::seconds(1.0);
  options.measure = SimTime::seconds(2.0);
  const std::vector<double> loads = {30.0, 60.0, 90.0};
  std::vector<std::function<PointResult()>> jobs;
  for (const double load : loads) {
    jobs.emplace_back(
        [&factory, &options, load] {
          return measure_point(factory, load, options);
        });
  }
  const std::vector<PointResult> results = run_points_parallel(jobs, 3);
  ASSERT_EQ(results.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(results[i].offered_cps, loads[i]);
    expect_points_identical(results[i],
                            measure_point(factory, loads[i], options));
  }
}

TEST(RunRecordTest, ConversionScalesRatesOnly) {
  PointResult point;
  point.offered_cps = 100.0;
  point.throughput_cps = 95.0;
  point.attempted_cps = 98.0;
  point.goodput_ratio = 0.95;
  point.setup_ms_mean = 12.5;
  point.retransmissions = 4;
  point.busy_500 = 1;
  point.proxy_utilization = {0.8};
  point.proxy_rejected = {1};
  point.wall_seconds = 0.5;

  const RunRecord record = to_run_record(point, 10.0, "series-a");
  EXPECT_EQ(record.label, "series-a");
  EXPECT_EQ(record.offered_cps, 1000.0);
  EXPECT_EQ(record.achieved_cps, 950.0);
  EXPECT_EQ(record.attempted_cps, 980.0);
  EXPECT_EQ(record.goodput_ratio, 0.95);    // ratio: scale-free
  EXPECT_EQ(record.setup_ms_mean, 12.5);    // time: scale-free
  EXPECT_EQ(record.retransmissions, 4u);
  EXPECT_EQ(record.busy_500, 1u);
  EXPECT_EQ(record.node_utilization, std::vector<double>{0.8});
  EXPECT_EQ(record.node_rejected, std::vector<std::uint64_t>{1});
  EXPECT_EQ(record.wall_seconds, 0.5);
}

// ---------------------------------------------------------------------------
// Scenario topology wiring
// ---------------------------------------------------------------------------

TEST(ScenarioTest, SeriesChainDeliversThroughAllProxies) {
  const BedFactory factory =
      series_chain(3, scaled_options(PolicyKind::kStaticChainFirstStateful));
  auto bed = factory(10.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(4.0));
  EXPECT_GE(bed->total_completed_calls(), 30u);
  ASSERT_EQ(bed->proxies().size(), 3u);
  // Every proxy saw the traffic.
  for (const auto& proxy : bed->proxies()) {
    EXPECT_GT(proxy->stats().requests_in, 0u);
  }
  // Only the first (stateful) proxy generated 100s.
  EXPECT_GT(bed->proxies()[0]->stats().generated_100, 0u);
  EXPECT_EQ(bed->proxies()[1]->stats().generated_100, 0u);
  EXPECT_EQ(bed->proxies()[2]->stats().generated_100, 0u);
}

TEST(ScenarioTest, InternalTrafficTerminatesAtFirstProxy) {
  const BedFactory factory = two_series_with_internal(
      0.5, scaled_options(PolicyKind::kStaticChainFirstStateful));
  auto bed = factory(20.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(4.0));
  ASSERT_EQ(bed->proxies().size(), 2u);
  // The second proxy only sees the external half.
  EXPECT_GT(bed->proxies()[0]->stats().requests_in,
            bed->proxies()[1]->stats().requests_in * 3 / 2);
  EXPECT_GE(bed->total_completed_calls(), 60u);
}

TEST(ScenarioTest, ParallelForkSplitsLoad) {
  const BedFactory factory =
      parallel_fork(scaled_options(PolicyKind::kStaticChainLastStateful));
  auto bed = factory(20.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(5.0));
  ASSERT_EQ(bed->proxies().size(), 3u);
  const auto& up = bed->proxies()[1]->stats();
  const auto& down = bed->proxies()[2]->stats();
  EXPECT_GT(up.requests_in, 0u);
  EXPECT_GT(down.requests_in, 0u);
  // 50/50 round-robin split.
  const double ratio = static_cast<double>(up.requests_in) /
                       static_cast<double>(down.requests_in);
  EXPECT_NEAR(ratio, 1.0, 0.2);
  EXPECT_GE(bed->total_completed_calls(), 70u);
}

TEST(ScenarioTest, ForkExitsAreStatefulInStandardConfig) {
  const BedFactory factory =
      parallel_fork(scaled_options(PolicyKind::kStaticChainLastStateful));
  auto bed = factory(10.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(3.0));
  EXPECT_EQ(bed->proxies()[0]->stats().forwarded_stateful, 0u);
  EXPECT_GT(bed->proxies()[1]->stats().forwarded_stateful, 0u);
  EXPECT_GT(bed->proxies()[2]->stats().forwarded_stateful, 0u);
}

}  // namespace
}  // namespace svk::workload

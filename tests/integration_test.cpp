// End-to-end integration tests: the SERvartuka controller running inside
// full proxy chains, compared against static configurations and the LP
// bound; robustness under packet loss.
//
// All topologies run at 1/100 scale (T_SF ~ 103.6 cps, T_SL ~ 123 cps) so
// whole saturation sweeps take simulated seconds.
#include <gtest/gtest.h>

#include "lp/state_model.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk::workload {
namespace {

constexpr double kScale = 0.01;
constexpr double kTsf = 10360.0 * kScale;
constexpr double kTsl = 12300.0 * kScale;

ScenarioOptions scaled(PolicyKind policy) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale = {kScale, kScale, kScale, kScale};
  // Faster controller reaction at small scale: 0.5 s windows.
  options.controller_period = SimTime::seconds(0.5);
  return options;
}

MeasureOptions longer_measure() {
  MeasureOptions options;
  options.warmup = SimTime::seconds(4.0);  // let Algorithm 2 converge
  options.measure = SimTime::seconds(5.0);
  return options;
}

// ---------------------------------------------------------------------------
// SERvartuka on a two-server chain (the paper's Figure 5 shape)
// ---------------------------------------------------------------------------

TEST(ServartukaIntegrationTest, ConvergesToSplitStateOnTwoChain) {
  const BedFactory factory =
      series_chain(2, scaled(PolicyKind::kServartuka));
  // Offered above T_SF but below the LP optimum (~112 cps).
  auto bed = factory(110.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(8.0));

  const auto& p0 = bed->proxies()[0]->stats();
  const auto& p1 = bed->proxies()[1]->stats();
  // Both nodes carry substantial stateful load (split roughly in half).
  EXPECT_GT(p0.forwarded_stateful, 0u);
  EXPECT_GT(p1.forwarded_stateful, 0u);
  const double total = static_cast<double>(p0.forwarded_stateful +
                                           p1.forwarded_stateful);
  // The realized split favors the exit (forwarding the downstream 100s
  // makes stateless relaying at the entry costlier than the pure model),
  // but both nodes carry a real share.
  EXPECT_GT(p0.forwarded_stateful / total, 0.08);
  EXPECT_LT(p0.forwarded_stateful / total, 0.75);
}

TEST(ServartukaIntegrationTest, BelowThresholdStaysFullyStatefulAtEntry) {
  const BedFactory factory =
      series_chain(2, scaled(PolicyKind::kServartuka));
  auto bed = factory(50.0);  // well below T_SF ~ 103.6
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(6.0));

  const auto& p0 = bed->proxies()[0]->stats();
  const auto& p1 = bed->proxies()[1]->stats();
  // Entry takes essentially all state; downstream sees marked traffic.
  EXPECT_GT(p0.forwarded_stateful, 100u);
  EXPECT_LT(p1.forwarded_stateful, p0.forwarded_stateful / 10 + 5);
}

TEST(ServartukaIntegrationTest, EveryCallStatefulSomewhere) {
  const BedFactory factory =
      series_chain(2, scaled(PolicyKind::kServartuka));
  auto bed = factory(110.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(8.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(11.0));

  // The paper verifies statefulness by matching calls to 100 Trying
  // responses: every established call must have produced at least one.
  std::uint64_t established = 0;
  std::uint64_t trying = 0;
  for (const auto& uac : bed->uacs()) {
    established += uac->metrics().calls_established;
    trying += uac->metrics().trying_received;
  }
  EXPECT_GT(established, 500u);
  EXPECT_GE(trying, established);
}

TEST(ServartukaIntegrationTest, BeatsStaticTwoChainByPaperMargin) {
  // The paper's static baseline is the deployment default: every node
  // stateful. Its measured two-series throughput (8540) sits well below
  // the single-node stateful limit (10360) — reproduced here because the
  // second node's 100 Trying must be relayed by the first, and both nodes
  // pay full state costs.
  const double static_sat = find_saturation(
      series_chain(2, scaled(PolicyKind::kStaticAllStateful)), 80.0, 135.0,
      5.0, longer_measure());
  const double dynamic_sat = find_saturation(
      series_chain(2, scaled(PolicyKind::kServartuka)), 80.0, 135.0, 5.0,
      longer_measure());
  // The paper reports +15% on this topology.
  EXPECT_GT(dynamic_sat, static_sat * 1.10);
  EXPECT_LT(static_sat, kTsf);           // degraded, like the paper's 8540
  EXPECT_GT(static_sat, 0.78 * kTsf);

  // SERvartuka also at least matches the best hand-tuned static split
  // (one stateful node), which the paper's LP argument implies.
  const double best_static_sat = find_saturation(
      series_chain(2, scaled(PolicyKind::kStaticChainFirstStateful)), 80.0,
      135.0, 5.0, longer_measure());
  EXPECT_GE(dynamic_sat, best_static_sat * 0.99);
}

TEST(ServartukaIntegrationTest, MeasuredThroughputWithinLpBound) {
  lp::StateDistributionModel model;
  const auto s1 = model.add_node("s1", kTsf, kTsl);
  const auto s2 = model.add_node("s2", kTsf, kTsl);
  model.add_edge(s1, s2);
  model.mark_entry(s1);
  model.mark_exit(s2);
  const auto lp_result = model.solve();
  ASSERT_TRUE(lp_result.optimal());

  const double measured = find_saturation(
      series_chain(2, scaled(PolicyKind::kServartuka)), 80.0, 135.0, 5.0,
      longer_measure());
  // The LP is an upper bound; the distributed algorithm should get within
  // ~80% of it (the paper: 9790 measured vs 11240 LP ~ 87%).
  EXPECT_LE(measured, lp_result.max_throughput * 1.03);
  EXPECT_GE(measured, lp_result.max_throughput * 0.75);
}

TEST(ServartukaIntegrationTest, OverloadSignalsFlowUpstreamPastSaturation) {
  const BedFactory factory =
      series_chain(2, scaled(PolicyKind::kServartuka));
  auto bed = factory(140.0);  // beyond the LP optimum ~112
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(10.0));
  // The exit node must have told the entry it froze.
  EXPECT_GT(bed->proxies()[1]->stats().overload_signals_sent, 0u);
  EXPECT_GT(bed->proxies()[0]->stats().overload_signals_received, 0u);
}

// ---------------------------------------------------------------------------
// Three-server configurations
// ---------------------------------------------------------------------------

TEST(ServartukaIntegrationTest, ThreeChainBeatsStatic) {
  const double static_sat = find_saturation(
      series_chain(3, scaled(PolicyKind::kStaticAllStateful)), 60.0, 135.0,
      5.0, longer_measure());
  const double dynamic_sat = find_saturation(
      series_chain(3, scaled(PolicyKind::kServartuka)), 60.0, 135.0, 5.0,
      longer_measure());
  // Paper: +16% on three in series.
  EXPECT_GT(dynamic_sat, static_sat * 1.10);
}

TEST(ServartukaIntegrationTest, ParallelForkAtLeastMatchesStatic) {
  const double static_sat = find_saturation(
      parallel_fork(scaled(PolicyKind::kStaticChainLastStateful)), 90.0,
      135.0, 5.0, longer_measure());
  const double dynamic_sat = find_saturation(
      parallel_fork(scaled(PolicyKind::kServartuka)), 90.0, 135.0, 5.0,
      longer_measure());
  // The LP says the fork's static standard config is already optimal;
  // SERvartuka must not do (meaningfully) worse.
  EXPECT_GE(dynamic_sat, static_sat * 0.95);
}

// ---------------------------------------------------------------------------
// Changing loads (Figure 7 shape)
// ---------------------------------------------------------------------------

class ChangingLoadTest : public ::testing::TestWithParam<double> {};

TEST_P(ChangingLoadTest, ServartukaAtLeastMatchesStatic) {
  const double fraction = GetParam();
  const double static_sat = find_saturation(
      two_series_with_internal(fraction,
                               scaled(PolicyKind::kStaticAllStateful)),
      80.0, 130.0, 10.0, longer_measure());
  const double dynamic_sat = find_saturation(
      two_series_with_internal(fraction, scaled(PolicyKind::kServartuka)),
      80.0, 130.0, 10.0, longer_measure());
  EXPECT_GE(dynamic_sat, static_sat * 0.97) << "fraction " << fraction;
}

INSTANTIATE_TEST_SUITE_P(Fractions, ChangingLoadTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0));

TEST(ChangingLoadsTest, GainPeaksAtHighExternalFraction) {
  // At 80% external the dynamic config clearly beats static (the paper's
  // +20% point).
  const double static_sat = find_saturation(
      two_series_with_internal(0.8,
                               scaled(PolicyKind::kStaticAllStateful)),
      80.0, 130.0, 5.0, longer_measure());
  const double dynamic_sat = find_saturation(
      two_series_with_internal(0.8, scaled(PolicyKind::kServartuka)), 80.0,
      130.0, 5.0, longer_measure());
  EXPECT_GT(dynamic_sat, static_sat * 1.08);
}

// ---------------------------------------------------------------------------
// Robustness under packet loss
// ---------------------------------------------------------------------------

TEST(LossRobustnessTest, CallsCompleteOverLossyLinks) {
  const BedFactory factory =
      series_chain(2, scaled(PolicyKind::kStaticChainFirstStateful));
  auto bed = factory(20.0);
  // 3% i.i.d. loss everywhere: SIP timers must recover the calls.
  bed->network().set_default_link(
      sim::LinkParams{SimTime::micros(250), SimTime{}, 0.03});
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(20.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(55.0));  // allow retransmissions

  std::uint64_t attempted = bed->total_attempted_calls();
  std::uint64_t completed = bed->total_completed_calls();
  std::uint64_t retransmissions = 0;
  for (const auto& uac : bed->uacs()) {
    retransmissions += uac->metrics().retransmissions;
  }
  EXPECT_GT(retransmissions, 0u);  // loss actually happened
  EXPECT_GE(static_cast<double>(completed),
            0.95 * static_cast<double>(attempted));
}

TEST(LossRobustnessTest, StatefulAbsorbsUpstreamRetransmissions) {
  // Loss only between the two proxies: the entry's client transactions
  // retransmit; the exit absorbs duplicates via its server transactions.
  const BedFactory factory =
      series_chain(2, scaled(PolicyKind::kStaticChainLastStateful));
  auto bed = factory(20.0);
  const Address p0 = *bed->registry().resolve("proxy0.example.net");
  const Address p1 = *bed->registry().resolve("proxy1.example.net");
  bed->network().set_link(
      p0, p1, sim::LinkParams{SimTime::micros(250), SimTime{}, 0.05});
  bed->network().set_link(
      p1, p0, sim::LinkParams{SimTime::micros(250), SimTime{}, 0.05});
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(20.0));
  EXPECT_GT(bed->proxies()[1]->stats().absorbed_retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Transaction state at steady load
// ---------------------------------------------------------------------------

TEST(LingerStateTest, MachinesAndEventsScaleWithCallsInProgress) {
  // Past the 32 s of timer J, every element holds about 37 s worth of
  // finished transactions. They are linger records: the machine objects
  // and pending events left track the calls in progress, not calls x 37 s.
  constexpr double kRate = 50.0;
  auto bed =
      series_chain(2, scaled(PolicyKind::kStaticAllStateful))(kRate);
  bed->start_load();
  bed->run_until(SimTime::seconds(40.0));

  std::size_t active = 0;
  std::size_t machines = 0;
  auto add = [&](const txn::TransactionManager& txns) {
    active += txns.active_count();
    machines += txns.machine_count();
  };
  for (const auto& proxy : bed->proxies()) add(proxy->transactions());
  for (const auto& uac : bed->uacs()) add(uac->transactions());
  for (const auto& uas : bed->uases()) add(uas->transactions());

  // Per call: three BYE server legs in J (32 s) and three client legs in
  // K (5 s); the INVITE legs end at the 2xx.
  EXPECT_GT(active, static_cast<std::size_t>(kRate * 3 * 32));
  EXPECT_LT(machines * 20, active);
  EXPECT_LT(bed->sim().pending_count() * 20, active);
}

}  // namespace
}  // namespace svk::workload

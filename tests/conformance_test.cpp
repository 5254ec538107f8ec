// Conformance suite (ctest -L conformance): the RFC 3261 oracle and
// run-invariant checker running in lockstep with full topologies.
//
//   * clean runs   — the paper's two-series shapes (Figure 5) and the fork
//                    pass a full load + drain cycle with zero violations;
//   * bit-identity — a checked measurement produces the exact RunRecord
//                    JSON of an unchecked one (checking is read-only);
//   * mutation smoke — reintroducing the historical Max-Forwards
//                    check-after-decrement bug via the debug hook makes the
//                    checker fire wire.premature_483, proving the oracle
//                    actually bites;
//   * end-to-end MF — with the fix, a request entering a 2-chain with
//                    Max-Forwards 2 still completes (the last hop forwards
//                    it carrying 0);
//   * dialog drain — dialog-stateful proxies hold zero dialogs after load
//                    stops and SIP timers drain;
//   * wire text    — every checked run round-trips every datagram through
//                    to_wire and the parser; one planted datagram the
//                    parser rejects is reported once, naming its sender
//                    and Call-ID.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/run_checker.hpp"
#include "sip/message.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk::workload {
namespace {

constexpr double kScale = 0.01;  // 1/100-scale nodes, as integration_test

ScenarioOptions scaled(PolicyKind policy) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale = {kScale, kScale, kScale, kScale};
  options.controller_period = SimTime::seconds(0.5);
  return options;
}

/// Runs a factory-built bed under load, stops, drains every SIP timer
/// (client D / server H and J linger 32 s), finishes the checker and
/// asserts it saw real traffic and recorded nothing.
void expect_clean_checked_run(const BedFactory& factory, double offered,
                              double load_seconds,
                              check::CheckOptions check_options = {}) {
  auto bed = factory(offered);
  check::RunChecker& checker = bed->enable_checking(check_options);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(load_seconds));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(load_seconds + 40.0));
  checker.finish();

  EXPECT_GT(checker.oracle().events_checked(), 0u);
  EXPECT_GT(checker.wire().datagrams_seen(), 0u);
  EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
}

// ---------------------------------------------------------------------------
// Clean runs: oracle + invariants over the paper's topologies
// ---------------------------------------------------------------------------

TEST(ConformanceTest, TwoSeriesServartukaIsClean) {
  // Figure 5's shape at an offered load that forces state delegation, so
  // both the stateful and stateless proxy paths are exercised.
  expect_clean_checked_run(
      series_chain(2, scaled(PolicyKind::kServartuka)), 110.0, 6.0);
}

TEST(ConformanceTest, TwoSeriesWithInternalTrafficIsClean) {
  expect_clean_checked_run(
      two_series_with_internal(0.7, scaled(PolicyKind::kServartuka)), 110.0,
      6.0);
}

TEST(ConformanceTest, ParallelForkIsClean) {
  expect_clean_checked_run(parallel_fork(scaled(PolicyKind::kServartuka)),
                           110.0, 6.0);
}

TEST(ConformanceTest, StaticChainUnderOverloadIsClean) {
  // Above single-node stateful saturation: 500s, retransmissions and
  // timeouts all flow past the oracle and must still be RFC-clean. The
  // all-stateful baseline duplicates state at every hop *by design*
  // (that's the paper's degraded static configuration), so the
  // exactly-one-stateful run invariant doesn't apply to it.
  check::CheckOptions check_options;
  check_options.expect_single_stateful = false;
  expect_clean_checked_run(
      series_chain(2, scaled(PolicyKind::kStaticAllStateful)), 130.0, 6.0,
      check_options);
}

TEST(ConformanceTest, DialogStatefulChainDrainsToZeroDialogs) {
  auto options = scaled(PolicyKind::kStaticChainFirstStateful);
  options.stateful_mode = profile::HandlingMode::kDialogStateful;
  const BedFactory factory = series_chain(2, options);

  auto bed = factory(60.0);
  check::RunChecker& checker = bed->enable_checking();
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(6.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(46.0));
  checker.finish();

  EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
  for (const auto& proxy : bed->proxies()) {
    EXPECT_EQ(proxy->dialogs().active_count(), 0u) << proxy->config().host;
    EXPECT_GT(proxy->dialogs().created_count() +
                  proxy->stats().forwarded_stateless,
              0u);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: checking must never perturb the simulation
// ---------------------------------------------------------------------------

TEST(ConformanceTest, CheckedRunDigestMatchesUnchecked) {
  const BedFactory factory = series_chain(2, scaled(PolicyKind::kServartuka));
  MeasureOptions plain;
  MeasureOptions checked = plain;
  checked.check = true;

  const PointResult a = measure_point(factory, 110.0, plain);
  const PointResult b = measure_point(factory, 110.0, checked);
  EXPECT_EQ(b.check_violations, 0u);

  RunRecord ra = to_run_record(a, 1.0, "conformance");
  RunRecord rb = to_run_record(b, 1.0, "conformance");
  ra.wall_seconds = 0.0;  // host noise, not simulation output
  rb.wall_seconds = 0.0;
  EXPECT_EQ(ra.to_json().dump(), rb.to_json().dump());
}

// ---------------------------------------------------------------------------
// Max-Forwards end-to-end + mutation smoke
// ---------------------------------------------------------------------------

TEST(ConformanceTest, MaxForwardsTwoTraversesTwoChain) {
  // Entry proxy sees MF 2, exit proxy sees MF 1 and must still forward
  // (carrying 0). With the historical check-after-decrement the exit
  // rejected every call 483 — this run doubles as the regression test.
  auto options = scaled(PolicyKind::kStaticChainFirstStateful);
  options.uac_max_forwards = 2;
  const BedFactory factory = series_chain(2, options);

  auto bed = factory(50.0);
  check::RunChecker& checker = bed->enable_checking();
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(4.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(44.0));
  checker.finish();

  EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
  EXPECT_GT(bed->total_completed_calls(), 0u);
  for (const auto& proxy : bed->proxies()) {
    EXPECT_EQ(proxy->stats().rejected_483, 0u) << proxy->config().host;
  }
}

TEST(ConformanceTest, MutationSmokeCatchesPredecrementBug) {
  // Same topology and load, with the off-by-one deliberately reintroduced
  // on every proxy. The checker must catch the premature 483s — if this
  // test fails, the oracle has gone blind and green checker runs mean
  // nothing.
  auto options = scaled(PolicyKind::kStaticChainFirstStateful);
  options.uac_max_forwards = 2;
  options.debug_predecrement_max_forwards = true;
  const BedFactory factory = series_chain(2, options);

  auto bed = factory(50.0);
  check::RunChecker& checker = bed->enable_checking();
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(4.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(44.0));
  checker.finish();

  EXPECT_FALSE(checker.log().empty());
  bool saw_premature_483 = false;
  for (const auto& violation : checker.log().entries()) {
    if (violation.kind == "wire.premature_483") saw_premature_483 = true;
  }
  EXPECT_TRUE(saw_premature_483) << checker.log().summary();
}

// ---------------------------------------------------------------------------
// Wire text: a datagram the parser rejects is caught
// ---------------------------------------------------------------------------

constexpr char kPlantedCallId[] = "planted-crlf-1";

/// A checked run of the two-series chain. With a non-null `planted_by`,
/// the first UAC also sends the first UAS an OPTIONS whose X- header value
/// holds a CRLF, so its wire text breaks into a header line with no colon,
/// and `planted_by` receives that UAC's host name. Returns the
/// wire.round_trip violations.
std::vector<check::Violation> round_trip_violations(std::string* planted_by) {
  auto bed = series_chain(
      2, scaled(PolicyKind::kStaticChainFirstStateful))(50.0);
  check::RunChecker& checker = bed->enable_checking();
  if (planted_by != nullptr) {
    const UacConfig& uac = bed->uacs().front()->config();
    *planted_by = uac.host;
    const Address to = bed->uases().front()->config().address;
    bed->sim().schedule_at(SimTime::seconds(1.0), [&bed, uac, to] {
      sip::Message options = sip::Message::request(
          sip::Method::kOptions, sip::Uri("", "uas.example.com"),
          sip::NameAddr{"", sip::Uri("probe", uac.host), "t1"},
          sip::NameAddr{"", sip::Uri("", "uas.example.com"), ""},
          kPlantedCallId, sip::CSeq{1, sip::Method::kOptions});
      options.push_via(sip::Via{"SIP/2.0/UDP", uac.host, "z9hG4bK-planted"});
      options.set_header("X-Planted", "a\r\nb");
      bed->network().send(uac.address, to, std::move(options).finish());
    });
  }
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(3.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(43.0));
  checker.finish();

  EXPECT_GT(checker.wire().datagrams_seen(), 0u);
  std::vector<check::Violation> found;
  for (const check::Violation& v : checker.log().entries()) {
    if (v.kind == "wire.round_trip") {
      found.push_back(v);
    } else {
      ADD_FAILURE() << "unexpected violation: " << v.kind << " " << v.detail;
    }
  }
  return found;
}

TEST(ConformanceTest, PlantedUnparseableDatagramIsReportedOnce) {
  // The bed alone round-trips every datagram; the planted one is the only
  // report.
  EXPECT_TRUE(round_trip_violations(nullptr).empty());
  std::string sender;
  const std::vector<check::Violation> found = round_trip_violations(&sender);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0].detail.starts_with(sender + " sent OPTIONS "))
      << found[0].detail;
  EXPECT_NE(found[0].detail.find(kPlantedCallId), std::string::npos)
      << found[0].detail;
  EXPECT_EQ(found[0].at, SimTime::seconds(1.0));
}

}  // namespace
}  // namespace svk::workload

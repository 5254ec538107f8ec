// Observability-layer tests: tracer, controller audit log, Chrome trace
// export, the metrics dump — and the determinism guarantee that enabling
// observability never changes simulated results.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

#include "obs/audit.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk::obs {
namespace {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, RecordsTypedEvents) {
  Tracer tracer;
  tracer.set_thread_name(1, "p1.example.org");
  tracer.instant("rx", "msg", SimTime::millis(2), 1, "from", 7.0);
  tracer.complete("service", "cpu", SimTime::millis(3), SimTime::micros(250),
                  1, "cost", 42.0);
  tracer.counter("utilization", SimTime::millis(4), 1, "util", 0.5);
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].phase, 'i');
  EXPECT_EQ(tracer.events()[1].phase, 'X');
  EXPECT_EQ(tracer.events()[2].phase, 'C');
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, BoundedBufferDropsNewestPastCapacity) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    tracer.instant("e", "t", SimTime::millis(i), 1);
  }
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(TracerTest, ChromeJsonHasTraceEventsAndThreadNames) {
  Tracer tracer;
  tracer.set_thread_name(3, "p1.example.org");
  tracer.instant("window_tick", "controller", SimTime::seconds(1.0), 3,
                 "total_rate", 150.0);
  tracer.complete("service", "cpu", SimTime::seconds(1.0),
                  SimTime::micros(100), 3);
  const std::string json = tracer.to_chrome_json().dump();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("p1.example.org"), std::string::npos);
  EXPECT_NE(json.find("\"window_tick\""), std::string::npos);
  // ts is exported in microseconds: 1s -> 1000000.
  EXPECT_NE(json.find("1000000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ControllerAuditLog
// ---------------------------------------------------------------------------

AuditWindow make_window(std::uint32_t tid, double at_s) {
  AuditWindow w;
  w.node_tid = tid;
  w.at = SimTime::seconds(at_s);
  w.elapsed = 1.0;
  w.total_rate = 150.0;
  return w;
}

TEST(AuditLogTest, RingAndPerNodeFilter) {
  ControllerAuditLog log(3);
  log.append(make_window(1, 1.0));
  log.append(make_window(2, 1.0));
  log.append(make_window(1, 2.0));
  log.append(make_window(2, 2.0));  // evicts the oldest
  EXPECT_EQ(log.windows().size(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
  const auto node1 = log.windows_for(1);
  ASSERT_EQ(node1.size(), 1u);  // its first window was evicted
  EXPECT_DOUBLE_EQ(node1[0].at.to_seconds(), 2.0);
  EXPECT_EQ(log.windows_for(2).size(), 2u);
}

TEST(AuditLogTest, InfiniteMyshareSerializesAsNull) {
  AuditWindow w = make_window(1, 1.0);
  AuditPathRow row;
  row.path_index = 0;
  row.myshare = std::numeric_limits<double>::infinity();
  w.paths.push_back(row);
  const std::string json = w.to_json().dump();
  EXPECT_NE(json.find("\"myshare\":null"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: observed run produces data; disabled run is bit-identical.
// ---------------------------------------------------------------------------

workload::BedFactory small_servartuka_chain() {
  workload::ScenarioOptions options;
  options.policy = workload::PolicyKind::kServartuka;
  options.capacity_scale = {0.01, 0.01, 0.01, 0.01};  // 1/100-scale nodes
  return workload::series_chain(2, options);
}

workload::MeasureOptions short_run(bool observe) {
  workload::MeasureOptions options;
  options.warmup = SimTime::seconds(3.0);
  options.measure = SimTime::seconds(4.0);
  options.observe = observe;
  return options;
}

TEST(ObsEndToEndTest, ObservedRunCapturesTraceMetricsAndAudit) {
  // 120 cps on 1/100-scale nodes sits above T_SF: the controller exercises
  // its case-2 path and every backend collects data.
  workload::ObservedPoint observed = workload::measure_point_retained(
      small_servartuka_chain(), 120.0, short_run(true));
  Observability* obs = observed.bed->observability();
  ASSERT_NE(obs, nullptr);

  EXPECT_GT(obs->tracer()->events().size(), 100u);
  const JsonValue metrics = observed.bed->metrics_json();
  const JsonValue& counters = *metrics.find("counters");
  EXPECT_GT(*counters.find("proxy.rx")->as_number(), 100.0);
  EXPECT_GT(*counters.find("proxy.forwarded_stateful")->as_number(), 0.0);
  // The event-queue depth and the setup times are sampled counter tracks.
  bool pending_track = false;
  bool setup_track = false;
  for (const TraceEvent& e : obs->tracer()->events()) {
    if (e.phase != 'C') continue;
    if (e.name == "pending_events") pending_track = true;
    if (e.name == "setup_ms") setup_track = true;
  }
  EXPECT_TRUE(pending_track);
  EXPECT_TRUE(setup_track);
  EXPECT_FALSE(obs->audit()->windows().empty());
  EXPECT_FALSE(observed.point.controller_windows.empty());
  // Both proxies' controllers reported windows.
  bool any_case2 = false;
  for (const AuditWindow& w : obs->audit()->windows()) {
    EXPECT_GT(w.elapsed, 0.0);
    if (!w.below_t_sf) any_case2 = true;
  }
  EXPECT_TRUE(any_case2);

  // The Chrome export writes and looks like a trace file.
  const std::string path =
      testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(obs->tracer()->write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string content(static_cast<std::size_t>(size), '\0');
  const std::size_t read = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::remove(path.c_str());
  content.resize(read);
  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"displayTimeUnit\""), std::string::npos);

  // The serialized RunRecord embeds the audit series.
  const RunRecord record = workload::to_run_record(observed.point);
  EXPECT_TRUE(record.controller_windows.is_array());
  const std::string record_json = record.to_json().dump();
  EXPECT_NE(record_json.find("\"controller_windows\""), std::string::npos);
  EXPECT_NE(record_json.find("\"sf_fraction\""), std::string::npos);
}

/// A point's serialized RunRecord without its host-time and audit parts,
/// the only parts allowed to differ between observed and unobserved runs.
std::string simulated_record(workload::PointResult point) {
  point.wall_seconds = 0.0;
  point.controller_windows.clear();
  return workload::to_run_record(point).to_json().dump();
}

TEST(ObsDeterminismTest, ObservedRunIsBitIdenticalToUnobserved) {
  // The observability layer only reads simulation state; switching it on
  // must not change a single measured value. Comparing the whole record
  // covers every field, including ones added later.
  const workload::PointResult off =
      workload::measure_point(small_servartuka_chain(), 120.0,
                              short_run(false));
  const workload::PointResult on =
      workload::measure_point(small_servartuka_chain(), 120.0,
                              short_run(true));

  EXPECT_EQ(simulated_record(off), simulated_record(on));
  EXPECT_EQ(off.trying_received, on.trying_received);
  EXPECT_EQ(off.calls_established_uac, on.calls_established_uac);
  EXPECT_EQ(off.proxy_stateful, on.proxy_stateful);
  EXPECT_EQ(off.proxy_stateless, on.proxy_stateless);
  // And the observed run did actually record something.
  EXPECT_TRUE(off.controller_windows.empty());
  EXPECT_FALSE(on.controller_windows.empty());
}

TEST(ObsMetricsTest, MetricsDumpIsTheComponentStats) {
  // The dump reads the components' always-on stats: it needs no
  // observability, and observing the run changes none of it.
  workload::ObservedPoint plain = workload::measure_point_retained(
      small_servartuka_chain(), 120.0, short_run(false));
  ASSERT_EQ(plain.bed->observability(), nullptr);
  const JsonValue metrics = plain.bed->metrics_json();
  const JsonValue* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());

  std::uint64_t rx = 0;
  std::uint64_t admitted = 0;
  for (const auto& proxy : plain.bed->proxies()) {
    rx += proxy->stats().rx;
    admitted += proxy->cpu().stats().admitted;
  }
  EXPECT_GT(rx, 0u);
  EXPECT_EQ(*counters->find("proxy.rx")->as_number(),
            static_cast<double>(rx));
  EXPECT_EQ(*counters->find("cpu.admitted")->as_number(),
            static_cast<double>(admitted));

  // Names are unique: one member per name-table entry (plus
  // fault.applied), where a name shared by two entries would have merged
  // them into one member.
  EXPECT_EQ(counters->size(),
            std::size(proxy::ProxyStats::kFields) +
                std::size(sim::CpuStats::kFields) +
                std::size(sim::NetworkStats::kFields) +
                std::size(txn::TxnStats::kFields) +
                std::size(workload::UacMetrics::kFields) +
                std::size(workload::UasMetrics::kFields) + 1);

  workload::ObservedPoint observed = workload::measure_point_retained(
      small_servartuka_chain(), 120.0, short_run(true));
  ASSERT_NE(observed.bed->observability(), nullptr);
  EXPECT_EQ(counters->dump(),
            observed.bed->metrics_json().find("counters")->dump());
}

}  // namespace
}  // namespace svk::obs

// bench_e2e — the repository benchmark: what an experiment costs on the
// host (wall time, simulated calls per host second, set-up time, peak RSS)
// on three workloads, next to the simulated results that a pure perf change
// must leave bit-identical. README.md in this directory documents the
// workloads, every metric, its unit, direction and regression bound.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<file>]
//   bench_e2e --smoke --benchmark=<path to BENCHMARK.json>
//
// A run times the bed's set-up a number of times, then repeats timed reps
// of the workload for --seconds of host time (at least a minimum number of
// reps), reads the peak RSS, and runs one checked rep under the RFC 3261
// oracle and invariant checker. Host times are given at a reference speed
// of the machine (reference.hpp). With --trace it also runs one traced rep
// that advances the bed in 0.5 simulated-second slices, records host-time
// spans and per-slice counter deltas (written as Chrome trace JSON to
// <file>), and calibrates each layer's host cost per operation
// (layers.hpp).
//
// Output: `METRIC <workload> <name> <value> <unit>` lines, then the full
// result as one JSON object on the last line. Correctness gate: every rep's
// RunRecord digest (MD5, wall clock zeroed) must be equal, the checked rep
// must report zero violations and the same digest, and the traced rep must
// match too; otherwise the result says "correct": false and the exit
// status is 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "../bench_util.hpp"
#include "common/md5.hpp"
#include "layers.hpp"
#include "reference.hpp"

namespace {

using namespace svk;
using Clock = std::chrono::steady_clock;
using workload::PolicyKind;

const Clock::time_point g_epoch = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double epoch_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak resident set size of this process in MiB (Linux VmHWM).
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024.0 / kMiB;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string_view name;
  double offered_full = 0.0;  // full-scale cps
};

// Why each exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"chain2_servartuka", 9000.0},
    {"chain2_overload", 13000.0},
    {"fork16_dialog", 10000.0},
};
constexpr std::size_t kMinReps = 3;
constexpr int kSetupSamples = 31;
constexpr int kBedsPerSetupSample = 64;

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

constexpr SimTime kSlice = SimTime::millis(500);  // traced reps
constexpr SimTime kChunk = SimTime::seconds(5.0);  // untraced reps

/// The workloads' beds: open-loop Poisson arrivals seeded by `seed`,
/// serial engine, the figure benches' 1/10 scale.
workload::BedFactory bed_factory(std::string_view name, std::uint64_t seed) {
  constexpr int kExits = 16;
  const bool fork = name == "fork16_dialog";
  workload::ScenarioOptions options;
  if (name == "chain2_servartuka") {
    options = bench::scenario(PolicyKind::kServartuka);
  } else if (name == "chain2_overload") {
    // Legacy queue bound (OverloadPolicy kNone): the CPU queue rejects.
    options = bench::scenario(PolicyKind::kStaticAllStateful);
  } else {
    // bench_perf_parallel's wide fork, run on the serial engine.
    options = bench::scenario(PolicyKind::kStaticChainLastStateful, kExits + 1);
    options.num_uacs = 8;
    options.num_uas = 8;
    options.stateful_mode = profile::HandlingMode::kDialogStateful;
    options.link_latency = SimTime::millis(10);
  }
  options.poisson_arrivals = true;
  options.seed = seed;
  options.shards = 1;
  return fork ? workload::wide_fork(kExits, options)
              : workload::series_chain(2, options);
}

// ---------------------------------------------------------------------------
// One bed, run phase by phase
// ---------------------------------------------------------------------------

struct BedSpec {
  workload::BedFactory factory;
  double offered = 0.0;  // scaled cps
  SimTime warmup;
  SimTime measure;
  std::string label;
  check::CheckOptions check_options;
};

/// Host-time span (Chrome trace "X" event); `parent` indexes the same
/// bed's span list, -1 for the root.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

/// Counter deltas over one slice and the levels at its end ("C" event).
struct Sample {
  double ts_us = 0.0;
  e2e::LayerCounters delta;
  e2e::LayerLevels levels;
};

/// What the traced rep records for one bed.
struct BedTrace {
  int track = 1;  // Chrome trace tid
  std::vector<Span> spans;
  std::vector<Sample> samples;
  std::vector<double> slice_ms;
  e2e::LayerCounters counters;  // whole run
  e2e::LayerLevels peak;
  std::uint64_t ticks = 0;

  int span(std::string name, Clock::time_point a, Clock::time_point b,
           int parent) {
    spans.push_back(Span{std::move(name), epoch_us(a), epoch_us(b), parent});
    return static_cast<int>(spans.size()) - 1;
  }
};

struct BedRun {
  workload::PointResult point;
  std::string digest;
  std::uint64_t completed = 0;  // calls completed over the whole run
  double setup_s = 0.0;         // factory + start_load
  double run_s = 0.0;           // first to last run_until, passes included
  double record_s = 0.0;        // to_run_record + MD5
  double teardown_s = 0.0;      // bed destruction
  double wall_s = 0.0;          // factory call to bed destroyed, no passes
  double wall_ref_s = 0.0;      // wall_s at the reference speed
  double run_ref_s = 0.0;       // the run phase at the reference speed
};

std::string digest_of(const workload::PointResult& point,
                      const std::string& label) {
  RunRecord record = bench::full_record(point, label);
  record.wall_seconds = 0.0;
  return Md5::hex(record.to_json().dump());
}

/// The counters workload::measure_point diffs across its measurement
/// window. It does not expose its phases, so run_bed mirrors it; the
/// checked rep runs measure_point itself and must produce the same digest,
/// which keeps the two from drifting apart.
struct Window {
  std::uint64_t completed = 0, attempted = 0, failed = 0, busy_500 = 0,
                busy_503 = 0, rejected = 0, timed_out = 0,
                retransmissions = 0, trying = 0, established = 0;
  std::vector<std::uint64_t> proxy_rejected, proxy_rejected_503,
      proxy_stateful, proxy_stateless;
};

Window read_window(workload::TestBed& bed) {
  Window w;
  w.completed = bed.total_completed_calls();
  w.attempted = bed.total_attempted_calls();
  for (const auto& uac : bed.uacs()) {
    const workload::UacMetrics& m = uac->metrics();
    w.failed += m.calls_failed;
    w.busy_500 += m.busy_500_received;
    w.busy_503 += m.busy_503_received;
    w.rejected += m.calls_rejected;
    w.timed_out += m.calls_timed_out;
    w.retransmissions += m.retransmissions;
    w.trying += m.trying_received;
    w.established += m.calls_established;
  }
  for (const auto& proxy : bed.proxies()) {
    const proxy::ProxyStats& p = proxy->stats();
    w.proxy_rejected.push_back(p.rejected_busy);
    w.proxy_rejected_503.push_back(p.rejected_503 + p.throttled_503);
    w.proxy_stateful.push_back(p.forwarded_stateful);
    w.proxy_stateless.push_back(p.forwarded_stateless);
  }
  return w;
}

workload::PointResult point_from(
    workload::TestBed& bed, double offered, const Window& before,
    const Window& after, double secs,
    const std::vector<sim::UtilizationProbe>& probes) {
  workload::PointResult r;
  r.offered_cps = offered;
  r.throughput_cps =
      static_cast<double>(after.completed - before.completed) / secs;
  r.attempted_cps =
      static_cast<double>(after.attempted - before.attempted) / secs;
  r.goodput_ratio = ratio(r.throughput_cps, r.attempted_cps);
  r.calls_failed = after.failed - before.failed;
  r.busy_500 = after.busy_500 - before.busy_500;
  r.busy_503 = after.busy_503 - before.busy_503;
  r.calls_rejected = after.rejected - before.rejected;
  r.calls_timed_out = after.timed_out - before.timed_out;
  r.retransmissions = after.retransmissions - before.retransmissions;
  r.trying_received = after.trying - before.trying;
  r.calls_established_uac = after.established - before.established;

  double weighted_mean = 0.0;
  std::size_t samples = 0;
  const Histogram* biggest = nullptr;
  for (const auto& uac : bed.uacs()) {
    const Histogram& h = uac->metrics().setup_time_ms;
    weighted_mean += h.mean() * static_cast<double>(h.count());
    samples += h.count();
    if (!biggest || h.count() > biggest->count()) biggest = &h;
  }
  if (samples > 0) {
    r.setup_ms_mean = weighted_mean / static_cast<double>(samples);
  }
  if (biggest != nullptr && biggest->count() > 0) {
    r.setup_ms_p50 = biggest->quantile(0.50);
    r.setup_ms_p90 = biggest->quantile(0.90);
    r.setup_ms_p99 = biggest->quantile(0.99);
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    r.proxy_utilization.push_back(probes[i].utilization());
    r.proxy_rejected.push_back(after.proxy_rejected[i] -
                               before.proxy_rejected[i]);
    r.proxy_rejected_503.push_back(after.proxy_rejected_503[i] -
                                   before.proxy_rejected_503[i]);
    r.proxy_stateful.push_back(after.proxy_stateful[i] -
                               before.proxy_stateful[i]);
    r.proxy_stateless.push_back(after.proxy_stateless[i] -
                                before.proxy_stateless[i]);
  }
  return r;
}

/// Advances `bed` to `until`. Untraced, it runs kChunk pieces with a pass
/// of the reference job after each, which scales the piece. Traced, it
/// runs kSlice slices and records a span and a counter sample per slice.
void advance(workload::TestBed& bed, SimTime until, BedTrace* trace,
             int parent, const e2e::LayerCounters& base,
             e2e::LayerCounters& last, e2e::ScaledTime& scaled) {
  if (trace == nullptr) {
    while (bed.now() < until) {
      const SimTime next = std::min(until, bed.now() + kChunk);
      const auto t0 = Clock::now();
      bed.run_until(next);
      scaled.add(seconds_between(t0, Clock::now()), true);
      scaled.close();
    }
    return;
  }
  while (bed.now() < until) {
    const SimTime next = std::min(until, bed.now() + kSlice);
    const auto t0 = Clock::now();
    bed.run_until(next);
    const auto t1 = Clock::now();
    trace->span("slice", t0, t1, parent);
    trace->slice_ms.push_back(1e3 * seconds_between(t0, t1));
    e2e::LayerCounters now = e2e::read_counters(bed);
    now -= base;
    Sample sample{epoch_us(t1), now, e2e::read_levels(bed)};
    sample.delta -= last;
    last = now;
    trace->peak.raise_to(sample.levels);
    trace->samples.push_back(std::move(sample));
  }
}

/// Runs one rep of `spec`. Its host time is also given at the reference
/// speed: untraced, piece by piece (advance); traced, the whole rep is
/// scaled by the passes of the reference job before and after it.
BedRun run_bed(const BedSpec& spec, BedTrace* trace, e2e::ReferenceClock& ref) {
  BedRun run;
  e2e::ScaledTime scaled(ref);
  // The message pool is per thread: its counts before this bed existed.
  e2e::LayerCounters base;
  base.msgs = sip::message_pool_stats().fresh_allocs +
              sip::message_pool_stats().reuses;
  base.pool_fresh = sip::message_pool_stats().fresh_allocs;
  e2e::LayerCounters last;

  const auto t0 = Clock::now();
  std::unique_ptr<workload::TestBed> bed = spec.factory(spec.offered);
  const auto t_factory = Clock::now();
  bed->start_load();
  const auto t1 = Clock::now();
  scaled.add(seconds_between(t0, t1));

  // Span 0 is the bed's root; its end is filled in after teardown.
  int warmup_span = -1;
  if (trace != nullptr) {
    trace->span("bed " + spec.label, t0, t0, -1);
    trace->span("factory", t0, t_factory, 0);
    trace->span("start_load", t_factory, t1, 0);
    warmup_span = trace->span("warmup", t1, t1, 0);
  }
  advance(*bed, spec.warmup, trace, warmup_span, base, last, scaled);
  const auto t_warm = Clock::now();
  const Window before = read_window(*bed);
  std::vector<sim::UtilizationProbe> probes;
  probes.reserve(bed->proxies().size());
  for (const auto& proxy : bed->proxies()) {
    probes.emplace_back(proxy->cpu(), proxy->sim());
  }
  for (auto& uac : bed->uacs()) uac->metrics().setup_time_ms.reset();
  int measure_span = -1;
  if (trace != nullptr) {
    trace->spans[static_cast<std::size_t>(warmup_span)].end_us =
        epoch_us(t_warm);
    measure_span = trace->span("measure", t_warm, t_warm, 0);
  }
  const SimTime end = spec.warmup + spec.measure;
  advance(*bed, end, trace, measure_span, base, last, scaled);
  const auto t2 = Clock::now();

  run.point = point_from(*bed, spec.offered, before, read_window(*bed),
                         spec.measure.to_seconds(), probes);
  run.completed = bed->total_completed_calls();
  if (trace != nullptr) {
    trace->counters = e2e::read_counters(*bed);
    trace->counters -= base;
    trace->ticks = e2e::controller_ticks(*bed, end);
  }
  const auto t_record = Clock::now();
  run.digest = digest_of(run.point, spec.label);
  const auto t3 = Clock::now();
  probes.clear();
  bed.reset();
  const auto t4 = Clock::now();

  run.setup_s = seconds_between(t0, t1);
  run.run_s = seconds_between(t1, t2);
  run.record_s = seconds_between(t_record, t3);
  run.teardown_s = seconds_between(t3, t4);
  if (trace != nullptr) scaled.add(run.run_s, true);
  scaled.add(seconds_between(t_record, t4));
  scaled.close();
  // Host time of the rep itself, without the passes of the reference job.
  run.wall_s = scaled.raw();
  run.wall_ref_s = scaled.wall();
  run.run_ref_s = scaled.run();
  run.point.wall_seconds = run.wall_s;
  if (trace != nullptr) {
    trace->spans.front().end_us = epoch_us(t4);
    trace->spans[static_cast<std::size_t>(measure_span)].end_us = epoch_us(t2);
    trace->span("record", t_record, t3, 0);
    trace->span("teardown", t3, t4, 0);
  }
  return run;
}

/// The library's own measure_point under the conformance oracle and
/// invariant checker.
workload::PointResult run_checked(const BedSpec& spec) {
  workload::MeasureOptions options;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  options.check = true;
  options.check_options = spec.check_options;
  return workload::measure_point(spec.factory, spec.offered, options);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Simulated results and counts: identical on every run of one commit
  /// and seed. The rest are host measurements.
  bool exact;
};

struct Outcome {
  std::string workload;
  std::uint64_t seed = 0;
  bool correct = true;
  std::uint64_t attempted = 0;  // simulation runs whose digest was checked
  std::uint64_t failed = 0;     // ... that failed the correctness gate
  std::string digest;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  JsonValue samples = JsonValue::object();  // per-rep host measurements

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), false});
  }
  void add_exact(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), true});
  }
  /// Counts `runs` checked simulation runs, failed unless `ok`.
  void check(bool ok, const std::string& what, std::uint64_t runs = 1) {
    attempted += runs;
    if (!ok) {
      failed += runs;
      correct = false;
      problems.push_back(what);
    }
  }
};

/// Host measurements at the reference speed, one entry per rep (per
/// set-up for setup_s), and as measured.
struct HostSamples {
  std::vector<double> wall_s, calls_per_s, setup_s, wall_raw_s;
};

/// The end-to-end host metrics: medians over the timed reps.
void add_host_metrics(Outcome& result, const HostSamples& h,
                      const e2e::ReferenceClock& ref, double rss_mib) {
  result.add("wall_s", median(h.wall_s), "s");
  result.add("calls_per_s", median(h.calls_per_s), "calls/s");
  result.add("setup_s", median(h.setup_s), "s");
  result.add("peak_rss_mib", rss_mib, "MiB");
  result.add("host.ref_job_ms", 1e3 * ref.median_seconds(), "ms");
  result.add("host.raw_wall_s", median(h.wall_raw_s), "s");
  result.samples["wall_s"] = JsonValue::array_of(h.wall_s);
  result.samples["calls_per_s"] = JsonValue::array_of(h.calls_per_s);
  result.samples["setup_s"] = JsonValue::array_of(h.setup_s);
  result.samples["wall_raw_s"] = JsonValue::array_of(h.wall_raw_s);
  result.samples["ref_job_s"] = JsonValue::array_of(ref.samples());
}

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string trace_path;
};

/// Inputs of the per-layer metrics, accumulated over the traced beds.
struct TracedTotals {
  e2e::LayerCounters counters;
  e2e::LayerLevels peak;
  std::uint64_t ticks = 0;
  std::vector<double> slice_ms;
  double setup_s = 0.0, run_s = 0.0, record_s = 0.0, teardown_s = 0.0;
  double util_max = 0.0;
  double wall_s = 0.0;  // the traced rep, at the reference speed

  void add(const BedTrace& t, const BedRun& run) {
    counters += t.counters;
    peak.raise_to(t.peak);
    ticks += t.ticks;
    slice_ms.insert(slice_ms.end(), t.slice_ms.begin(), t.slice_ms.end());
    setup_s += run.setup_s;
    run_s += run.run_s;
    record_s += run.record_s;
    teardown_s += run.teardown_s;
    for (const double u : run.point.proxy_utilization) {
      util_max = std::max(util_max, u);
    }
  }
};

void add_layer_metrics(Outcome& result, const TracedTotals& t,
                       const e2e::CalibrationShape& shape,
                       double untraced_wall_s) {
  const e2e::LayerCosts ns = e2e::calibrate(shape);
  const e2e::LayerCounters& c = t.counters;
  const double calls = static_cast<double>(c.calls_attempted);
  const auto ms = [](double count, double per_op_ns) {
    return count * per_op_ns / 1e6;
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  const double sim_ms = ms(n(c.events), ns.event_ns);
  const double net_ms = ms(n(c.datagrams), ns.datagram_ns);
  const double cpu_ms = ms(n(c.cpu_admitted), ns.submit_ns);
  const double sip_ms = ms(n(c.msgs), ns.forward_ns);
  const double txn_ms = ms(n(c.txn_created), ns.txn_ns);
  const double dialog_ms = ms(n(c.dialog_created), ns.dialog_ns);
  const double location_ms = ms(n(c.location_queries), ns.lookup_ns);
  const double core_ms =
      ms(n(c.core_routed), ns.decide_ns) + ms(n(t.ticks), ns.tick_ns);
  const double run_ms = 1e3 * t.run_s;

  result.add_exact("sim.events", n(c.events), "count");
  result.add_exact("sim.events_per_call", ratio(n(c.events), calls), "ratio");
  result.add_exact("sim.cancel_ratio", ratio(n(c.cancelled), n(c.scheduled)),
                   "ratio");
  result.add_exact("sim.overflow_inserts", n(c.overflow_inserts), "count");
  result.add("sim.event_ns", ns.event_ns, "ns");
  result.add("sim.self_ms", sim_ms, "ms");
  result.add_exact("net.datagrams_per_call", ratio(n(c.datagrams), calls),
                   "ratio");
  result.add_exact("net.dropped", n(c.dropped), "count");
  result.add("net.datagram_ns", ns.datagram_ns, "ns");
  result.add("net.self_ms", net_ms, "ms");
  result.add_exact("cpu.admitted", n(c.cpu_admitted), "count");
  result.add_exact("cpu.reject_ratio",
                   ratio(n(c.cpu_rejected), n(c.cpu_admitted + c.cpu_rejected)),
                   "ratio");
  result.add_exact("cpu.util_max", t.util_max, "ratio");
  result.add("cpu.submit_ns", ns.submit_ns, "ns");
  result.add("cpu.self_ms", cpu_ms, "ms");
  result.add_exact("sip.msgs_per_call", ratio(n(c.msgs), calls), "ratio");
  result.add("sip.pool_fresh_allocs", n(c.pool_fresh), "count");
  result.add("sip.forward_ns", ns.forward_ns, "ns");
  result.add("sip.self_ms", sip_ms, "ms");
  result.add_exact("txn.created_per_call", ratio(n(c.txn_created), calls),
                   "ratio");
  result.add_exact("txn.peak_live", n(t.peak.txn_live), "count");
  result.add("txn.ns", ns.txn_ns, "ns");
  result.add("txn.self_ms", txn_ms, "ms");
  result.add_exact("dialog.created", n(c.dialog_created), "count");
  result.add_exact("dialog.peak_live", n(t.peak.dialog_live), "count");
  result.add("dialog.ns", ns.dialog_ns, "ns");
  result.add("dialog.self_ms", dialog_ms, "ms");
  result.add_exact("proxy.msgs_in_per_call",
                   ratio(n(c.proxy_msgs_in), calls), "ratio");
  result.add_exact("proxy.stateful_ratio",
                   ratio(n(c.proxy_stateful),
                         n(c.proxy_stateful + c.proxy_stateless)),
                   "ratio");
  result.add_exact("proxy.absorbed_retransmits", n(c.absorbed), "count");
  result.add_exact("proxy.rejected", n(c.rejected), "count");
  result.add_exact("location.queries", n(c.location_queries), "count");
  result.add("location.lookup_ns", ns.lookup_ns, "ns");
  result.add("location.self_ms", location_ms, "ms");
  result.add_exact("core.decisions", n(c.core_routed), "count");
  result.add_exact("core.ticks", n(t.ticks), "count");
  result.add("core.decide_ns", ns.decide_ns, "ns");
  result.add("core.tick_ns", ns.tick_ns, "ns");
  result.add("core.self_ms", core_ms, "ms");
  result.add("workload.setup_ms", 1e3 * t.setup_s, "ms");
  result.add("workload.teardown_ms", 1e3 * t.teardown_s, "ms");
  result.add("workload.slice_ms_p50", quantile(t.slice_ms, 0.50), "ms");
  result.add("workload.slice_ms_p90", quantile(t.slice_ms, 0.90), "ms");
  result.add_exact("uac.retransmissions", n(c.retransmissions), "count");
  result.add("common.record_ms", 1e3 * t.record_s, "ms");
  result.add("host.run_ms", run_ms, "ms");
  result.add("host.attributed_frac",
             ratio(sim_ms + net_ms + cpu_ms + sip_ms + txn_ms + dialog_ms +
                       location_ms + core_ms,
                   run_ms),
             "frac");
  result.add("trace.overhead_frac", ratio(t.wall_s, untraced_wall_s) - 1.0,
             "frac");
}

/// Simulated results of one load point, which must not move under a pure
/// perf change.
void add_simulated(Outcome& result, const workload::PointResult& point,
                   SimTime measure) {
  const double attempted = point.attempted_cps * measure.to_seconds();
  result.add_exact("sim_tput_cps", bench::full(point.throughput_cps), "cps");
  result.add_exact("call_fail_ratio",
                   ratio(static_cast<double>(point.calls_failed), attempted),
                   "ratio");
  result.add_exact("call_setup_ms_p50", point.setup_ms_p50, "ms");
  result.add_exact("call_setup_ms_p99", point.setup_ms_p99, "ms");
  result.add_exact("call_setup_samples",
                   static_cast<double>(point.calls_established_uac), "count");
}

e2e::CalibrationShape shape_for(const workload::BedFactory& factory,
                                double offered, const TracedTotals& t) {
  e2e::CalibrationShape shape;
  const e2e::LayerCounters& c = t.counters;
  shape.pending_events = t.peak.pending_events;
  shape.cancels_per_event =
      ratio(static_cast<double>(c.cancelled), static_cast<double>(c.events));
  shape.cpu_cost_per_job =
      ratio(c.cpu_cost, static_cast<double>(c.cpu_admitted));
  shape.txn_population = t.peak.txn_live_node;
  shape.dialog_population = t.peak.dialog_live_node;
  // The bed's configuration, read off a fresh (never run) instance.
  const std::unique_ptr<workload::TestBed> bed = factory(offered);
  shape.hosts =
      bed->proxies().size() + bed->uacs().size() + bed->uases().size();
  shape.link_latency = bed->network().min_latency();
  shape.cpu_capacity = bed->proxies().front()->cpu().capacity();
  shape.users = static_cast<int>(bed->location()->size());
  return shape;
}

/// Host time to build and start one bed (never run), at the reference
/// speed: per sample, the mean over kBedsPerSetupSample beds built one
/// after another. Timed before the reps, with a pass of the reference job
/// between samples: a bed built right after a large one was torn down pays
/// page faults that one built after a small one does not.
std::vector<double> setup_samples(const BedSpec& spec, int samples,
                                  e2e::ReferenceClock& ref) {
  std::vector<double> out;
  e2e::ScaledTime scaled(ref);
  std::vector<std::unique_ptr<workload::TestBed>> beds;
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (int b = 0; b < kBedsPerSetupSample; ++b) {
      beds.push_back(spec.factory(spec.offered));
      beds.back()->start_load();
    }
    scaled.add(seconds_between(t0, Clock::now()));
    out.push_back(scaled.close() / kBedsPerSetupSample);
    beds.clear();
  }
  return out;
}

/// Whether to run another timed rep: at least kMinReps, then as many as
/// end within opt.seconds; smoke runs do exactly two.
bool keep_going(std::size_t done, const RunOptions& opt,
                Clock::time_point start) {
  if (opt.smoke) return done < 2;
  if (done < kMinReps) return true;
  const double elapsed = seconds_between(start, Clock::now());
  return elapsed * static_cast<double>(done + 1) /
             static_cast<double>(done) <=
         opt.seconds;
}

Outcome run_workload(const Workload& w, const RunOptions& opt,
                     std::vector<BedTrace>& traces) {
  Outcome result;
  result.workload = std::string(w.name);
  result.seed = opt.seed;
  BedSpec spec;
  spec.factory = bed_factory(w.name, opt.seed);
  spec.offered = bench::scaled(w.offered_full);
  spec.warmup = SimTime::seconds(opt.smoke ? 2.0 : 10.0);
  spec.measure = SimTime::seconds(opt.smoke ? 3.0 : 40.0);
  spec.label = std::string(w.name);
  // Static all-stateful takes state at both hops by design.
  spec.check_options.expect_single_stateful = w.name != "chain2_overload";

  e2e::ReferenceClock ref;
  HostSamples host;
  host.setup_s = setup_samples(spec, opt.smoke ? 2 : kSetupSamples, ref);
  std::vector<BedRun> reps;
  const auto start = Clock::now();
  while (keep_going(reps.size(), opt, start)) {
    reps.push_back(run_bed(spec, nullptr, ref));
    const BedRun& r = reps.back();
    result.check(r.digest == reps.front().digest,
                 "rep " + std::to_string(reps.size() - 1) + " digest differs");
    host.wall_s.push_back(r.wall_ref_s);
    host.wall_raw_s.push_back(r.wall_s);
    host.calls_per_s.push_back(static_cast<double>(r.completed) / r.run_ref_s);
  }
  // The reference job's table is resident for the whole run.
  const double rss =
      peak_rss_mib() - static_cast<double>(e2e::kReferenceJobBytes) / kMiB;
  result.digest = reps.front().digest;

  const workload::PointResult checked = run_checked(spec);
  result.check(checked.check_violations == 0,
               "checked rep: " + std::to_string(checked.check_violations) +
                   " violations");
  result.check(digest_of(checked, spec.label) == result.digest,
               "checked rep digest differs");

  add_host_metrics(result, host, ref, rss);
  add_simulated(result, reps.front().point, spec.measure);

  if (opt.traced) {
    BedTrace& trace = traces.emplace_back();
    const BedRun traced = run_bed(spec, &trace, ref);
    TracedTotals totals;
    totals.add(trace, traced);
    totals.wall_s = traced.wall_ref_s;
    result.check(traced.digest == result.digest, "traced rep digest differs");
    add_layer_metrics(result, totals,
                      shape_for(spec.factory, spec.offered, totals),
                      median(host.wall_s));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

JsonValue counters_json(const e2e::LayerCounters& d,
                        const e2e::LayerLevels& l) {
  JsonValue args = JsonValue::object();
  args["events"] = d.events;
  args["datagrams"] = d.datagrams;
  args["cpu_admitted"] = d.cpu_admitted;
  args["msgs"] = d.msgs;
  args["txn_created"] = d.txn_created;
  args["dialog_created"] = d.dialog_created;
  args["calls_completed"] = d.calls_completed;
  args["pending_events"] = static_cast<std::uint64_t>(l.pending_events);
  args["txn_live"] = static_cast<std::uint64_t>(l.txn_live);
  args["dialog_live"] = static_cast<std::uint64_t>(l.dialog_live);
  return args;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<BedTrace>& traces) {
  JsonValue events = JsonValue::array();
  for (const BedTrace& t : traces) {
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      JsonValue e = JsonValue::object();
      e["name"] = s.name;
      e["ph"] = "X";
      e["ts"] = s.start_us;
      e["dur"] = s.end_us - s.start_us;
      e["pid"] = 1;
      e["tid"] = t.track;
      e["args"]["id"] = static_cast<std::uint64_t>(i);
      e["args"]["parent"] = s.parent;
      e["args"]["rep"] = t.track;
      events.push_back(std::move(e));
    }
    for (const Sample& s : t.samples) {
      JsonValue e = JsonValue::object();
      e["name"] = "layer counters";
      e["ph"] = "C";
      e["ts"] = s.ts_us;
      e["pid"] = 1;
      e["tid"] = t.track;
      e["args"] = counters_json(s.delta, s.levels);
      events.push_back(std::move(e));
    }
  }
  JsonValue doc = JsonValue::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc.write_file(path, -1);
}

JsonValue result_json(const Outcome& r) {
  JsonValue out = JsonValue::object();
  out["workload"] = r.workload;
  out["seed"] = r.seed;
  out["correct"] = r.correct;
  out["attempted"] = r.attempted;
  out["failed"] = r.failed;
  out["digest"] = r.digest;
  JsonValue& metrics = out["metrics"];
  metrics = JsonValue::object();
  for (const Metric& m : r.metrics) {
    metrics[m.name]["value"] = m.value;
    metrics[m.name]["unit"] = m.unit;
    metrics[m.name]["exact"] = m.exact;
  }
  out["problems"] = JsonValue::array_of(r.problems);
  out["samples"] = r.samples;
  JsonValue& host = out["host"];
  host["nproc"] = std::thread::hardware_concurrency();
  host["compiler"] = SVK_COMPILER;
  host["build_type"] = SVK_BUILD_TYPE;
  return out;
}

void print_metrics(const Outcome& r) {
  std::printf("DIGEST %s %s\n", r.workload.c_str(), r.digest.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("METRIC %s %s %.9g %s\n", r.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("GATE FAILED %s: %s\n", r.workload.c_str(), p.c_str());
  }
}

/// --smoke: every workload on a short horizon, two reps, traced and
/// checked; every metric BENCHMARK.json names must be reported with its
/// unit.
int run_smoke(const std::string& benchmark_path) {
  std::string error;
  const auto spec = JsonValue::parse_file(benchmark_path, &error);
  if (!spec) {
    std::fprintf(stderr, "cannot read %s: %s\n", benchmark_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> wanted;  // (name, unit)
  for (const char* list : {"end_to_end", "per_layer"}) {
    const JsonValue* entries = spec->find(list);
    if (entries == nullptr || entries->as_array() == nullptr) {
      std::fprintf(stderr, "%s: no %s list\n", benchmark_path.c_str(), list);
      return 1;
    }
    for (const JsonValue& entry : *entries->as_array()) {
      const JsonValue* name = entry.find("name");
      const JsonValue* unit = entry.find("unit");
      if (name == nullptr || unit == nullptr || !name->as_string() ||
          !unit->as_string()) {
        std::fprintf(stderr, "%s: a %s entry lacks a name or unit\n",
                     benchmark_path.c_str(), list);
        return 1;
      }
      wanted.emplace_back(*name->as_string(), *unit->as_string());
    }
  }
  RunOptions opt;
  opt.smoke = true;
  opt.traced = true;
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    std::vector<BedTrace> traces;
    const Outcome r = run_workload(w, opt, traces);
    print_metrics(r);
    ok = ok && r.correct;
    for (const auto& [name, unit] : wanted) {
      const bool found =
          std::any_of(r.metrics.begin(), r.metrics.end(), [&](const Metric& m) {
            return m.name == name && m.unit == unit;
          });
      if (!found) {
        std::printf("SMOKE %s: metric %s [%s] missing\n", r.workload.c_str(),
                    name.c_str(), unit.c_str());
        ok = false;
      }
    }
  }
  std::printf("SMOKE %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=<name> --seed=<n> [--seconds=<s>]"
               " [--trace=<file>]\n       bench_e2e --smoke "
               "--benchmark=<BENCHMARK.json>\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload_name;
  std::string benchmark_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.rfind(flag, 0) == 0 ? argv[i] + flag.size() : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload_name = v;
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      opt.trace_path = v;
      opt.traced = !opt.trace_path.empty();
    } else if (const char* v = value("--benchmark=")) {
      benchmark_path = v;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  if (opt.smoke) {
    if (benchmark_path.empty()) return usage();
    return run_smoke(benchmark_path);
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr || !(opt.seconds > 0.0)) return usage();

  std::vector<BedTrace> traces;
  const Outcome r = run_workload(*w, opt, traces);
  print_metrics(r);
  if (opt.traced && !write_chrome_trace(opt.trace_path, traces)) {
    std::fprintf(stderr, "failed to write %s\n", opt.trace_path.c_str());
    return 1;
  }
  std::printf("%s\n", result_json(r).dump().c_str());
  return r.correct ? 0 : 1;
}

// Ablation — overload-control algorithms (src/overload).
//
// Compares the three ingress controls {none, local occupancy gate,
// hop-by-hop rate feedback} under both state policies {static all-stateful,
// SERvartuka} on a two-series chain whose EXIT node has half the entry's
// capacity — the downstream-bottleneck shape hop-by-hop feedback exists
// for. The sweep runs from the static chain's knee (~5200 cps, measured)
// to 1.4x past it. The uncontrolled chain uses a lax queue-delay bound
// (800 ms — the deep-buffer regime of a vanilla server), so past the knee
// it melts down in retransmission storms; the controls must convert that
// collapse into cheap, early 503s and hold goodput. Local control pays the
// Retry-After oscillation tax (each 503 pauses a generator); hop-by-hop
// throttles at the entry against the exit's advertised rate, without
// Retry-After, so goodput holds near the bottleneck's capacity.
//
// The binary gates its own exit code on the subsystem's acceptance
// criteria:
//   * at 1.4x the knee (both policies deep past saturation there),
//     hop-by-hop goodput strictly exceeds no-control goodput under BOTH
//     state policies;
//   * the whole measurement is bit-deterministic: every point is run
//     twice and the MD5 over all serialized records must match.
//
//   --quick    CI smoke: only the gate load (the gate still runs).
#include <cstring>

#include "bench_util.hpp"
#include "common/md5.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using overload::ControlKind;
using workload::PolicyKind;

bool g_quick = false;

/// Uncontrolled knee of the half-capacity-exit static chain (cps, full
/// scale; measured — the exit saturates first at ~0.5 * T_SF with relay
/// slack at the entry).
constexpr double kKneeCps = 5200.0;
/// The acceptance gate is evaluated at 1.4x the knee: past saturation for
/// the static chain AND for SERvartuka (delegation buys ~15% more knee,
/// so 1.2x would still be sustainable for the dynamic policy).
constexpr double kGateLoad = 1.4 * kKneeCps;

struct Combo {
  ControlKind control;
  PolicyKind policy;
};

constexpr Combo kCombos[] = {
    {ControlKind::kNone, PolicyKind::kStaticAllStateful},
    {ControlKind::kLocalOccupancy, PolicyKind::kStaticAllStateful},
    {ControlKind::kHopByHopRate, PolicyKind::kStaticAllStateful},
    {ControlKind::kNone, PolicyKind::kServartuka},
    {ControlKind::kLocalOccupancy, PolicyKind::kServartuka},
    {ControlKind::kHopByHopRate, PolicyKind::kServartuka},
};

std::string combo_name(const Combo& combo) {
  return std::string(overload::to_string(combo.control)) + "/" +
         (combo.policy == PolicyKind::kServartuka ? "servartuka" : "static");
}

std::vector<double> loads() {
  if (g_quick) return {kGateLoad};
  return {kKneeCps, 1.2 * kKneeCps, kGateLoad};
}

workload::BedFactory make_factory(const Combo& combo) {
  auto options = scenario(combo.policy);
  options.capacity_scale = {kScale, 0.5 * kScale};  // bottleneck at the exit
  // More generators than the paper default: a Retry-After pause then idles
  // 1/6th of the offered load instead of half, separating the controls'
  // steady-state behavior from the pause granularity.
  options.num_uacs = 6;
  options.overload_control.kind = combo.control;
  // Deep-buffer regime: an uncontrolled node soaks up 1.6 RTTs of backlog
  // before its legacy 500 bound trips — past the knee that feeds the
  // retransmission storm the controls are measured against. The policies
  // replace this bound, so it only shapes the kNone baseline.
  options.max_queue_delay = SimTime::millis(800);
  return workload::series_chain(2, options);
}

workload::MeasureOptions storm_measure() {
  auto options = measure_options();
  options.measure = SimTime::seconds(15.0);  // storms need time to show
  return options;
}

/// One full pass over every (combo, load) pair. Each job is an independent
/// deterministic simulation; order of results is combo-major.
std::vector<workload::PointResult> run_pass() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const Combo& combo : kCombos) {
    for (const double load : loads()) {
      jobs.push_back([combo, load] {
        return workload::measure_point(make_factory(combo), scaled(load),
                                       storm_measure());
      });
    }
  }
  return workload::run_points_parallel(jobs, g_threads);
}

/// MD5 over every serialized record of a pass, wall-clock zeroed (host
/// timing is not simulation output).
std::string pass_digest(const std::vector<workload::PointResult>& points) {
  std::string all;
  for (const auto& point : points) {
    RunRecord record = full_record(point);
    record.wall_seconds = 0.0;
    all += record.to_json().dump();
  }
  return Md5::hex(all);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  svk::bench::initialize(argc, argv);

  print_header("abl_overload_algorithms",
               "overload controls {none, local, hop-by-hop} x state "
               "policies, two-series chain");

  const std::vector<double> grid = loads();
  const auto results = run_pass();
  const std::string digest = pass_digest(results);
  const auto rerun = run_pass();
  const std::string rerun_digest = pass_digest(rerun);
  const bool digest_ok = digest == rerun_digest;

  // Results in series form (one per combo, points across the load grid).
  std::vector<Series> series;
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    Series s;
    s.name = combo_name(kCombos[c]);
    for (std::size_t l = 0; l < grid.size(); ++l) {
      const auto& point = results[c * grid.size() + l];
      s.points.emplace_back(full(point.offered_cps),
                            full(point.throughput_cps));
      s.max_value = std::max(s.max_value, full(point.throughput_cps));
      s.records.push_back(full_record(point, s.name));
    }
    series.push_back(std::move(s));
  }

  print_series_table("goodput by overload control (cps)",
                     "completed calls/second at the UASes", series);

  // Fast-fail vs slow-fail split at the gate load: the controls' value is
  // not only carried calls but rejecting in one RTT instead of 64*T1.
  std::printf("\nat %.0f cps offered (1.4x knee):\n", kGateLoad);
  const std::size_t gate_idx =
      static_cast<std::size_t>(std::find(grid.begin(), grid.end(), kGateLoad) -
                               grid.begin());
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    const auto& point = results[c * grid.size() + gate_idx];
    std::printf("  %-22s goodput %7.0f cps   rejected(503) %8llu   "
                "timed-out %8llu\n",
                combo_name(kCombos[c]).c_str(), full(point.throughput_cps),
                static_cast<unsigned long long>(point.calls_rejected),
                static_cast<unsigned long long>(point.calls_timed_out));
  }

  // -- Acceptance gates ------------------------------------------------------
  bool gate_ok = true;
  for (const PolicyKind policy :
       {PolicyKind::kStaticAllStateful, PolicyKind::kServartuka}) {
    double none_tput = 0.0, hop_tput = 0.0;
    for (std::size_t c = 0; c < std::size(kCombos); ++c) {
      if (kCombos[c].policy != policy) continue;
      const double tput =
          full(results[c * grid.size() + gate_idx].throughput_cps);
      if (kCombos[c].control == ControlKind::kNone) none_tput = tput;
      if (kCombos[c].control == ControlKind::kHopByHopRate) hop_tput = tput;
    }
    const bool ok = hop_tput > none_tput;
    gate_ok = gate_ok && ok;
    std::printf("gate: hop-by-hop > none at 1.4x knee (%s): "
                "%7.0f > %7.0f -> %s\n",
                policy == PolicyKind::kServartuka ? "servartuka" : "static",
                hop_tput, none_tput, ok ? "ok" : "FAIL");
  }
  std::printf("gate: bit-identical rerun digest %s -> %s\n", digest.c_str(),
              digest_ok ? "ok" : "FAIL");

  BenchReport report("abl_overload_algorithms");
  report.root()["quick"] = g_quick;
  for (const Series& s : series) report.add_series(s);
  report.add_metric("knee_cps", kKneeCps);
  report.add_metric("gate_load_cps", kGateLoad);
  report.root()["determinism_digest"] = digest;
  report.root()["determinism_rerun_match"] = digest_ok;
  report.root()["gate_pass"] = gate_ok && digest_ok;
  report.write();
  return gate_ok && digest_ok ? 0 : 1;
}

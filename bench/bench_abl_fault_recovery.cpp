// Ablation — fault recovery.
//
// Two axes, both comparing a static all-stateful chain against the
// SERvartuka controller at an offered load between T_SF and T_SL (where
// delegation — and therefore the overload-signal channel — is load-bearing):
//
//  1. Overload-signal loss: each proxy deterministically sheds a fraction
//     of its overload advertisements before sending. The controller's
//     repair machinery (periodic re-advertisement, staleness release,
//     probing) has to keep the delegation loop converged as the channel
//     degrades; at loss = 1.0 the upstream never learns of downstream
//     overload and the system behaves as if overload control were off.
//
//  2. Crash/restart of the downstream proxy: a fail-silent outage of
//     swept duration in the middle of the measurement window (FaultPlan
//     node_crash). External calls die with the proxy; the metric is how
//     much throughput the topology retains (internal traffic keeps
//     flowing) and whether the controller re-converges after the restart
//     instead of wedging on stale overload state.
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

/// Between T_SF (10360) and T_SL (12300): the controller must delegate.
constexpr double kOffered = 11000.0;

constexpr double kLossRates[] = {0.0, 0.25, 0.5, 0.75, 1.0};
constexpr double kOutagesS[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0};

struct AxisPoint {
  double x;            // loss rate or outage seconds
  double static_tput;  // full-scale cps
  double dynamic_tput;
};

struct Axes {
  std::vector<AxisPoint> loss;
  std::vector<AxisPoint> crash;
};

std::function<workload::PointResult()> make_loss_job(PolicyKind policy,
                                                     double loss) {
  return [policy, loss] {
    auto options = scenario(policy, 2);
    options.overload_signal_loss = loss;
    return workload::measure_point(workload::series_chain(2, options),
                                   scaled(kOffered), measure_options());
  };
}

fault::FaultPlan crash_plan(double outage_s) {
  fault::FaultPlan plan;
  plan.name = "crash_proxy1";
  if (outage_s <= 0.0) return plan;  // fault-free baseline
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kNodeCrash;
  // Mid-measurement (warmup 10 s + 2 s); the longest outage still ends
  // inside the 10 s measurement window, so every point sees the restart.
  crash.at = SimTime::seconds(12.0);
  crash.duration = SimTime::seconds(outage_s);
  crash.host = "proxy1.example.net";
  plan.events.push_back(crash);
  return plan;
}

std::function<workload::PointResult()> make_crash_job(PolicyKind policy,
                                                      double outage_s) {
  return [policy, outage_s] {
    auto options = scenario(policy, 2);
    options.faults = crash_plan(outage_s);
    // Internal traffic terminates at the entry proxy and survives the
    // downstream outage — the recovery signal is how much of it (plus
    // resumed external traffic) each policy keeps.
    return workload::measure_point(
        workload::two_series_with_internal(0.7, options), scaled(kOffered),
        measure_options());
  };
}

Axes run_axes() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const double loss : kLossRates) {
    jobs.push_back(make_loss_job(PolicyKind::kStaticAllStateful, loss));
    jobs.push_back(make_loss_job(PolicyKind::kServartuka, loss));
  }
  for (const double outage : kOutagesS) {
    jobs.push_back(make_crash_job(PolicyKind::kStaticAllStateful, outage));
    jobs.push_back(make_crash_job(PolicyKind::kServartuka, outage));
  }
  const auto results = workload::run_points_parallel(jobs, g_threads);

  Axes axes;
  std::size_t j = 0;
  for (const double loss : kLossRates) {
    const double s = full(results[j++].throughput_cps);
    const double d = full(results[j++].throughput_cps);
    axes.loss.push_back(AxisPoint{loss, s, d});
  }
  for (const double outage : kOutagesS) {
    const double s = full(results[j++].throughput_cps);
    const double d = full(results[j++].throughput_cps);
    axes.crash.push_back(AxisPoint{outage, s, d});
  }
  return axes;
}

void print_summary(const Axes& axes) {
  print_header("Ablation: fault recovery",
               "two-series throughput at 11000 cps offered");

  std::printf("\noverload-signal loss (series chain):\n");
  std::printf("%-14s %16s %16s\n", "loss", "static (cps)",
              "SERvartuka (cps)");
  for (const AxisPoint& p : axes.loss) {
    std::printf("%-14.2f %16.0f %16.0f\n", p.x, p.static_tput,
                p.dynamic_tput);
  }

  std::printf("\nproxy1 crash/restart (two-series with 30%% internal):\n");
  std::printf("%-14s %16s %16s\n", "outage (s)", "static (cps)",
              "SERvartuka (cps)");
  for (const AxisPoint& p : axes.crash) {
    std::printf("%-14.1f %16.0f %16.0f\n", p.x, p.static_tput,
                p.dynamic_tput);
  }
  std::printf("\n(signal loss only starves the delegation loop — the static"
              " chain has no\n signals to lose; crashes cost both policies"
              " the outage window, and the\n controller must additionally"
              " shed stale overload state after the restart)\n");
}

bool write_json(const Axes& axes) {
  BenchReport report("abl_fault_recovery");

  JsonValue& loss = report.root()["signal_loss"];
  loss = JsonValue::array();
  for (const AxisPoint& p : axes.loss) {
    JsonValue entry = JsonValue::object();
    entry["loss"] = p.x;
    entry["static_throughput_cps"] = p.static_tput;
    entry["servartuka_throughput_cps"] = p.dynamic_tput;
    loss.push_back(std::move(entry));
  }

  JsonValue& crash = report.root()["crash_outage"];
  crash = JsonValue::array();
  for (const AxisPoint& p : axes.crash) {
    JsonValue entry = JsonValue::object();
    entry["outage_s"] = p.x;
    entry["static_throughput_cps"] = p.static_tput;
    entry["servartuka_throughput_cps"] = p.dynamic_tput;
    crash.push_back(std::move(entry));
  }

  report.add_metric("offered_cps", kOffered);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const Axes axes = run_axes();
  print_summary(axes);
  return write_json(axes) ? 0 : 1;
}

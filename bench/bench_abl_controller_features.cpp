// Ablation — the controller's stabilization features.
//
// The paper specifies Algorithms 1 & 2; running them verbatim inside a
// closed loop exposed three practical gaps this implementation fills (each
// toggleable in ControllerConfig):
//   share smearing   — error-diffusion of the per-window stateful share
//                      (verbatim Algorithm 1 front-loads the share, making
//                      each window start a full-stateful burst);
//   share smoothing  — EWMA across windows (rate sampling noise is
//                      amplified ~beta/(alpha-beta)-fold into the share);
//   util feedback    — closed-loop multiplicative decrease from observed
//                      CPU utilization (open-loop thresholds cannot see
//                      the work induced by rejected calls or relayed 100s).
// This bench measures the two-chain at a demanding load with each feature
// removed in turn.
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

constexpr double kOffered = 10700.0;

struct Variant {
  const char* name;
  std::function<void(core::ControllerConfig&)> tweak;
};

const Variant kVariants[] = {
    {"full controller", [](core::ControllerConfig&) {}},
    {"no utilization feedback",
     [](core::ControllerConfig& c) { c.utilization_feedback = false; }},
    {"no share smoothing",
     [](core::ControllerConfig& c) { c.share_smoothing_gain = 1.0; }},
    {"no headroom (target util 1.0)",
     [](core::ControllerConfig& c) { c.target_utilization = 1.0; }},
    {"paper-literal (all off)",
     [](core::ControllerConfig& c) {
       c.utilization_feedback = false;
       c.share_smoothing_gain = 1.0;
       c.target_utilization = 1.0;
     }},
};

/// The variants are independent single-point simulations; fan them across
/// the runner's worker threads. Returns full-scale throughput per variant.
std::vector<double> run_variants() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const Variant& variant : kVariants) {
    jobs.emplace_back([&variant] {
      auto options = scenario(PolicyKind::kServartuka);
      options.controller_tweak = variant.tweak;
      auto mo = measure_options();
      mo.measure = SimTime::seconds(15.0);
      return workload::measure_point(workload::series_chain(2, options),
                                     scaled(kOffered), mo);
    });
  }
  std::vector<double> throughput;
  for (const auto& point : workload::run_points_parallel(jobs, g_threads)) {
    throughput.push_back(full(point.throughput_cps));
  }
  return throughput;
}

void print_summary(const std::vector<double>& throughput) {
  print_header("Ablation: controller stabilizations",
               "two-chain throughput at 10700 cps offered");
  std::printf("%-34s %18s\n", "variant", "throughput (cps)");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    std::printf("%-34s %18.0f\n", kVariants[i].name, throughput[i]);
  }
  std::printf("\n(the paper's algorithms assume the open-loop thresholds"
              " are exact; inside a\n closed loop each stabilization"
              " recovers throughput the verbatim version loses)\n");
}

bool write_json(const std::vector<double>& throughput) {
  BenchReport report("abl_controller_features");
  JsonValue& variants = report.root()["variants"];
  variants = JsonValue::array();
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    JsonValue entry = JsonValue::object();
    entry["name"] = kVariants[i].name;
    entry["throughput_cps"] = throughput[i];
    variants.push_back(std::move(entry));
  }
  report.add_metric("offered_cps", kOffered);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const std::vector<double> throughput = run_variants();
  print_summary(throughput);
  return write_json(throughput) ? 0 : 1;
}

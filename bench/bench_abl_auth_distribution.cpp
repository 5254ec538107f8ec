// Ablation — distributing authentication (Sections 6.2/8): the paper notes
// "we have seen significantly larger improvements when we tried
// distributing authentication". Here the stateful node also carries Digest
// verification and dialog accounting (the costliest Figure 3 mode), so
// moving state also moves the auth work.
//
// Configurations on the two-server chain, all verifying credentials:
//   static-all:  both nodes stateful+auth for every call (deployment
//                default; double verification)
//   static-entry: entry stateful+auth, exit stateless (hand-tuned)
//   SERvartuka:  dynamic; exactly the stateful node verifies
#include "bench_util.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using workload::PolicyKind;

workload::ScenarioOptions auth_options(PolicyKind policy) {
  auto options = scenario(policy);
  options.stateful_mode = profile::HandlingMode::kDialogStatefulAuth;
  options.authenticate = true;
  options.distribute_auth = true;
  // Thresholds for the controller: the auth-stateful mode saturates lower.
  options.t_sf_cps =
      profile::CpuCostModel::saturation_cps(
          profile::HandlingMode::kDialogStatefulAuth);
  return options;
}

double find_sat(PolicyKind policy) {
  const auto factory = workload::series_chain(2, auth_options(policy));
  return find_saturation_full(factory, 6500.0, 13000.0, 500.0);
}

void print_summary(double static_all, double static_entry,
                   double dynamic) {
  print_header("Ablation: distributing authentication (Sections 6.2/8)",
               "two-server chain, Digest auth + dialog state");
  std::printf("\nmeasured (saturation, cps):\n");
  std::printf("  static, both nodes auth+stateful:   %10.0f\n",
              static_all);
  std::printf("  static, entry auth+stateful:        %10.0f\n",
              static_entry);
  std::printf("  SERvartuka (auth follows state):    %10.0f\n", dynamic);
  std::printf("\nimprovement over the static default: %+.0f%%"
              " (paper: 'significantly larger'\n than the ~15-20%% state-only"
              " gains)\n",
              100.0 * (dynamic / static_all - 1.0));
}

bool write_json(double static_all, double static_entry, double dynamic) {
  BenchReport report("abl_auth_distribution");
  report.add_metric("static_all_saturation_cps", static_all);
  report.add_metric("static_entry_saturation_cps", static_entry);
  report.add_metric("servartuka_saturation_cps", dynamic);
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  const double static_all = find_sat(PolicyKind::kStaticAllStateful);
  const double static_entry = find_sat(PolicyKind::kStaticChainFirstStateful);
  const double dynamic = find_sat(PolicyKind::kServartuka);
  print_summary(static_all, static_entry, dynamic);
  return write_json(static_all, static_entry, dynamic) ? 0 : 1;
}

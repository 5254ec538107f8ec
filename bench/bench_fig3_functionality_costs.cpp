// Figure 3 — "Server Functionality costs": per-call CPU events by proxy
// mode at 1 call/second, broken down by functional block, as OProfile
// reported for OpenSER.
//
// Paper bar heights: No-Lookup 362, Stateless 412, Tran-SF 707,
// Dialog-SF 803, Authentication 983 CPU events per call.
#include <array>

#include "bench_util.hpp"
#include "profile/cost_model.hpp"
#include "profile/profiler.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using profile::CostBlock;
using profile::HandlingMode;
using workload::PolicyKind;
using workload::ScenarioOptions;

struct ModeSpec {
  HandlingMode stateful_mode;
  PolicyKind policy;
  bool authenticate;
  double paper_events;
};

constexpr int kNumModes = 5;
const std::array<ModeSpec, kNumModes> kModes = {{
    {HandlingMode::kStatelessNoLookup, PolicyKind::kStaticAllStateless,
     false, 362.0},
    {HandlingMode::kStateless, PolicyKind::kStaticAllStateless, false,
     412.0},
    {HandlingMode::kTransactionStateful, PolicyKind::kStaticAllStateful,
     false, 707.0},
    {HandlingMode::kDialogStateful, PolicyKind::kStaticAllStateful, false,
     803.0},
    {HandlingMode::kDialogStatefulAuth, PolicyKind::kStaticAllStateful, true,
     983.0},
}};

struct ModeResult {
  double events_per_call = 0.0;
  std::uint64_t calls = 0;
  profile::CostVector breakdown;
};
using ModeResults = std::array<ModeResult, kNumModes>;

constexpr CostBlock kOrder[] = {
    CostBlock::kParsing, CostBlock::kMemory,  CostBlock::kLumping,
    CostBlock::kRouting, CostBlock::kHashing, CostBlock::kLookup,
    CostBlock::kState,   CostBlock::kAuth,    CostBlock::kOther,
};

/// CPU events per completed call spent in `block`.
double per_call(const ModeResult& result, CostBlock block) {
  return result.calls ? result.breakdown[block] /
                            static_cast<double>(result.calls)
                      : 0.0;
}

/// Runs one mode at 1 cps for the paper's 10 minutes and profiles the proxy.
ModeResult run_mode(const ModeSpec& spec) {
  ScenarioOptions options;  // full calibrated capacity: load is trivial
  options.policy = spec.policy;
  options.stateful_mode = spec.stateful_mode;
  // The stateless policy must also run in the scenario's *stateless*
  // mode under measurement; the no-lookup case turns lookups off.
  options.stateless_mode =
      spec.stateful_mode == HandlingMode::kStatelessNoLookup
          ? HandlingMode::kStatelessNoLookup
          : HandlingMode::kStateless;
  options.authenticate = spec.authenticate;
  options.num_uacs = 2;  // the paper: two SIPp clients at 1 cps total

  auto bed = workload::single_proxy(options)(1.0);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(600.0));  // 10 minutes
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(605.0));

  const auto& proxy = *bed->proxies()[0];
  ModeResult result;
  result.calls = bed->total_completed_calls();
  result.breakdown = proxy.profiler().snapshot();
  result.events_per_call =
      proxy.profiler().application_events() /
      static_cast<double>(result.calls);
  return result;
}

void print_summary(const ModeResults& results) {
  print_header("Figure 3", "per-call CPU events by server functionality");

  std::printf("%-16s", "block");
  for (const ModeSpec& spec : kModes) {
    std::printf(" %14s", std::string(to_string(spec.stateful_mode)).c_str());
  }
  std::printf("\n");
  for (const CostBlock block : kOrder) {
    std::printf("%-16s", std::string(to_string(block)).c_str());
    for (std::size_t m = 0; m < kNumModes; ++m) {
      std::printf(" %14.1f", per_call(results[m], block));
    }
    std::printf("\n");
  }
  std::printf("%-16s", "TOTAL");
  for (std::size_t m = 0; m < kNumModes; ++m) {
    std::printf(" %14.1f", results[m].events_per_call);
  }
  std::printf("\n\npaper vs measured (application CPU events per call):\n");
  for (std::size_t m = 0; m < kNumModes; ++m) {
    print_paper_row(std::string(to_string(kModes[m].stateful_mode)).c_str(),
                    kModes[m].paper_events, results[m].events_per_call);
  }
}

bool write_json(const ModeResults& results) {
  BenchReport report("fig3_functionality_costs");
  JsonValue& modes = report.root()["modes"];
  modes = JsonValue::array();
  for (std::size_t m = 0; m < kNumModes; ++m) {
    JsonValue entry = JsonValue::object();
    entry["mode"] = std::string(to_string(kModes[m].stateful_mode));
    entry["events_per_call"] = results[m].events_per_call;
    entry["paper_events_per_call"] = kModes[m].paper_events;
    entry["calls"] = results[m].calls;
    JsonValue& blocks = entry["blocks"];
    for (const CostBlock block : kOrder) {
      blocks[std::string(to_string(block))] = per_call(results[m], block);
    }
    modes.push_back(std::move(entry));
  }
  return report.write();
}

}  // namespace

int main(int argc, char** argv) {
  svk::bench::initialize(argc, argv);
  ModeResults results;
  for (std::size_t m = 0; m < kNumModes; ++m) results[m] = run_mode(kModes[m]);
  print_summary(results);
  return write_json(results) ? 0 : 1;
}

// FaultPlan — a deterministic, serializable schedule of fault events.
//
// A plan is a list of timed events (node crash/restart, directed link-down,
// partitions, loss/latency bursts, CPU-capacity degradation) applied to a
// running simulation by the FaultInjector. Every event carries an absolute
// simulation time and an optional duration; an event with a duration is
// automatically reverted when it elapses. Plans are value types: they can
// be generated from a seed (tests/generators.hpp), written to JSON for
// replay artifacts, and loaded back from JSON (`--faults=<file>` on the
// bench binaries). The JSON schema is documented in EXPERIMENTS.md.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/sim_time.hpp"

namespace svk::fault {

enum class FaultKind {
  kNodeCrash,     // host stops transmitting and receiving; CPU drains to
                  // nowhere. duration = outage length (0 = never restarts).
  kLinkDown,      // directed (or bidirectional) link drops everything
  kPartition,     // `group` is isolated from every other host
  kLossBurst,     // extra Bernoulli loss on a link (or network-wide)
  kLatencyBurst,  // extra one-way latency on a link (or network-wide)
  kCpuDegrade,    // host CPU runs at `value` times nominal capacity
};

[[nodiscard]] std::string_view to_string(FaultKind kind);
[[nodiscard]] std::optional<FaultKind> fault_kind_from(std::string_view name);

struct FaultEvent {
  FaultKind kind = FaultKind::kNodeCrash;
  /// Absolute simulation time the fault begins.
  SimTime at;
  /// How long the fault lasts; zero means it is never reverted.
  SimTime duration;
  /// Target host (crash, degrade) or link endpoint A (link faults).
  std::string host;
  /// Link endpoint B; empty on a loss/latency burst = every link.
  std::string peer;
  /// Partition: the hosts cut off from the rest of the network.
  std::vector<std::string> group;
  /// Loss probability (kLossBurst) or capacity factor (kCpuDegrade).
  double value = 0.0;
  /// Added one-way latency (kLatencyBurst).
  SimTime extra_latency;
  /// Link faults: apply to both directions (default) or `host`->`peer` only.
  bool bidirectional = true;
};

struct FaultPlan {
  std::string name;
  /// Seed of the generator that produced the plan (0 = hand-written); kept
  /// for provenance in replay artifacts.
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// The time the last fault (including its revert) has settled.
  [[nodiscard]] SimTime end_time() const;

  [[nodiscard]] JsonValue to_json() const;
  /// Parses a plan from its JSON form. On failure returns nullopt and, when
  /// `error` is non-null, a description of the offending field.
  [[nodiscard]] static std::optional<FaultPlan> from_json(
      const JsonValue& json, std::string* error = nullptr);
  [[nodiscard]] static std::optional<FaultPlan> load_file(
      const std::string& path, std::string* error = nullptr);
  bool write_file(const std::string& path) const;
};

}  // namespace svk::fault

// FaultInjector — executes a FaultPlan against a running simulation.
//
// The injector resolves a plan's host names to addresses, schedules every
// event (and its revert) on the Simulator, and applies them through the
// network's NetworkFaultState overlay plus per-node hooks (CPU capacity).
// It is entirely deterministic: the plan fixes what happens and when; any
// randomness lives in the plan *generator* (tests/generators.hpp), never
// in the execution. Applied faults are recorded in the observability layer
// (trace instants in the "fault" category, fault.applied counter).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace svk::fault {

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, sim::NetworkFaultState& net)
      : sim_(sim), net_(net) {}

  /// Declares a host the plan may reference. `set_cpu_factor` may be null
  /// for hosts without a CPU model (UAC/UAS boxes).
  void add_host(const std::string& name, Address address,
                std::function<void(double)> set_cpu_factor = nullptr);

  /// Schedules every event of `plan` at its absolute simulation time (past
  /// times fire on the next simulator step). Armed from the harness, the
  /// events carry rank 0 and so sort before every same-tick host event.
  /// Events naming unknown hosts are skipped and recorded in errors(). Call
  /// once per injector.
  void arm(const FaultPlan& plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  /// Events applied so far (reverts count separately).
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

 private:
  struct Host {
    Address address;
    std::function<void(double)> set_cpu_factor;
  };

  void apply(const FaultEvent& event, bool revert);
  [[nodiscard]] const Host* resolve(const std::string& name,
                                    const FaultEvent& event);
  void record(const FaultEvent& event, bool revert, std::uint32_t tid);

  sim::Simulator& sim_;
  sim::NetworkFaultState& net_;
  std::unordered_map<std::string, Host> hosts_;
  std::vector<Address> all_addresses_;  // declaration order, for partitions
  FaultPlan plan_;
  std::vector<std::string> errors_;
  std::uint64_t applied_{0};
};

}  // namespace svk::fault

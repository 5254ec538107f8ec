// Run-invariant checker: the umbrella over the whole checking subsystem.
//
// RunChecker composes the three layers of checking into one object the
// workload TestBed can switch on with a single call:
//
//   * a TxnOracle shadowing every transaction machine (tapped into the
//     TransactionManagers),
//   * a WireChecker watching every datagram (tapped into the Network), and
//   * its own periodic sweep over aggregate counters the paper's claims
//     rest on — most importantly that at most ONE server per admitted call
//     runs it statefully (the exactly-one-stateful property SERvartuka's
//     state-distribution argument requires) and that every admitted INVITE
//     was marked by some stateful hop.
//
// At drain (finish()) it additionally asserts conservation: no leaked
// transactions, dialogs or shadows; no open UAC calls; attempted calls all
// reached a terminal accounting bucket; no delivered request left
// unanswered. All violations land in one ViolationLog; tests assert it is
// empty and the chaos harness dumps it as a JSON artifact.
//
// Everything here is read-only with respect to the simulation. The periodic
// sweep schedules simulator events, which consumes EventIds, but ids are
// opaque, the RNG is untouched and no production decision reads them — so a
// checked run produces a bit-identical RunRecord digest to an unchecked one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "check/oracle.hpp"
#include "check/violations.hpp"
#include "check/wire.hpp"
#include "common/json.hpp"
#include "sim/simulator.hpp"

namespace svk::check {

struct CheckOptions {
  /// Aggregate-counter sweep period.
  SimTime period = SimTime::millis(250);
  /// Assert exactly-one-stateful: no call is handled statefully by two
  /// servers, and no admitted INVITE reaches the UAS without any stateful
  /// hop (true for SERvartuka assignments; a deliberately all-stateful or
  /// all-stateless static configuration must turn this off).
  bool expect_single_stateful = true;
  /// Assert at drain that every delivered request was answered. Turn off
  /// for runs with crash faults, which legitimately strand requests.
  bool expect_all_answered = true;
};

/// Snapshot of the aggregate counters the sweep verifies, supplied by the
/// embedding testbed via set_totals_source — the checker never links
/// against the proxy/workload layers.
struct RunTotals {
  std::uint64_t double_stateful = 0;   // calls seen stateful at 2+ servers
  std::uint64_t unmarked_invites = 0;  // admitted INVITEs no hop marked
  std::size_t active_transactions = 0;
  std::size_t active_dialogs = 0;
  std::size_t open_uac_calls = 0;
  std::uint64_t calls_attempted = 0;
  std::uint64_t calls_terminal = 0;  // completed + failed + cancelled
};

class RunChecker {
 public:
  RunChecker(sim::Simulator& sim, CheckOptions options);

  RunChecker(const RunChecker&) = delete;
  RunChecker& operator=(const RunChecker&) = delete;

  [[nodiscard]] ViolationLog& log() { return log_; }
  [[nodiscard]] const ViolationLog& log() const { return log_; }
  [[nodiscard]] TxnOracle& oracle() { return oracle_; }
  [[nodiscard]] WireChecker& wire() { return wire_; }
  [[nodiscard]] const CheckOptions& options() const { return options_; }

  /// Installs the counter-snapshot source; required before start().
  void set_totals_source(std::function<RunTotals()> source) {
    totals_source_ = std::move(source);
  }

  /// Starts the periodic sweep.
  void start();

  /// Stops the sweep and runs the drain-time conservation checks.
  /// Idempotent; must be called after the simulation has drained and
  /// before asserting on pending_count (the sweep timer is an event).
  void finish();

  /// Continuous checks, also invoked by the periodic sweep.
  void tick();

  /// {"total": N, "violations": [...]} — the artifact the chaos harness
  /// writes next to a failing FaultPlan.
  [[nodiscard]] JsonValue to_json() const { return log_.to_json(); }

 private:
  sim::Simulator& sim_;
  CheckOptions options_;
  ViolationLog log_;
  TxnOracle oracle_;
  WireChecker wire_;
  std::function<RunTotals()> totals_source_;
  sim::PeriodicTimer sweep_;
  bool finished_{false};
  // Monotone counters are flagged on *increase* so one offending call
  // yields one report, not one per sweep.
  std::uint64_t seen_double_stateful_{0};
  std::uint64_t seen_unmarked_invites_{0};
};

}  // namespace svk::check

#include "check/run_checker.hpp"

#include <string>

namespace svk::check {

RunChecker::RunChecker(sim::Simulator& sim, CheckOptions options)
    : sim_(sim),
      options_(options),
      oracle_(sim, log_),
      wire_(sim, log_),
      sweep_(sim, options.period, [this] { tick(); }) {}

void RunChecker::start() { sweep_.start(); }

void RunChecker::tick() {
  if (!totals_source_) return;
  const RunTotals totals = totals_source_();
  if (options_.expect_single_stateful &&
      totals.double_stateful > seen_double_stateful_) {
    log_.add("run.double_stateful", sim_.now(),
             std::to_string(totals.double_stateful - seen_double_stateful_) +
                 " new call(s) handled statefully by more than one server "
                 "(exactly-one-stateful violated)");
  }
  seen_double_stateful_ = totals.double_stateful;
  if (options_.expect_single_stateful &&
      totals.unmarked_invites > seen_unmarked_invites_) {
    log_.add("run.unmarked_invite", sim_.now(),
             std::to_string(totals.unmarked_invites - seen_unmarked_invites_) +
                 " new admitted INVITE(s) reached the UAS without any hop "
                 "taking stateful responsibility");
  }
  seen_unmarked_invites_ = totals.unmarked_invites;
}

void RunChecker::finish() {
  if (finished_) return;
  finished_ = true;
  sweep_.stop();
  tick();  // pick up counter movement since the last sweep
  wire_.at_drain(options_.expect_all_answered);
  if (oracle_.live_shadows() != 0) {
    log_.add("run.leaked_transactions", sim_.now(),
             std::to_string(oracle_.live_shadows()) +
                 " transaction(s) still live after drain");
  }
  if (!totals_source_) return;
  const RunTotals totals = totals_source_();
  if (totals.active_transactions != 0) {
    log_.add("run.leaked_transactions", sim_.now(),
             std::to_string(totals.active_transactions) +
                 " transaction(s) still in a manager table after drain");
  }
  if (totals.active_dialogs != 0) {
    log_.add("run.leaked_dialogs", sim_.now(),
             std::to_string(totals.active_dialogs) +
                 " dialog(s) still tracked after drain — early dialogs from "
                 "never-completing calls must be expired or abandoned");
  }
  if (totals.open_uac_calls != 0) {
    log_.add("run.open_calls", sim_.now(),
             std::to_string(totals.open_uac_calls) +
                 " UAC call(s) never reached a terminal state");
  }
  if (totals.calls_attempted != totals.calls_terminal) {
    log_.add("run.call_accounting", sim_.now(),
             "attempted " + std::to_string(totals.calls_attempted) +
                 " calls but completed+failed+cancelled accounts for " +
                 std::to_string(totals.calls_terminal));
  }
}

}  // namespace svk::check

// SIP transaction timers (RFC 3261 17, Table 4).
#pragma once

#include "common/sim_time.hpp"

namespace svk::txn {

/// Base timers and the RFC 3261 formulas deriving the rest. UDP transport
/// is assumed throughout (the paper's SIPp/OpenSER testbed ran UDP), so the
/// "unreliable transport" values apply.
///
/// Every member is static: a default-constructed TimerConfig is an empty
/// tag, kept only because bench/e2e passes `TimerConfig{}` to
/// TransactionManager. The next benchmark change deletes that argument.
struct TimerConfig {
  static constexpr SimTime t1 = SimTime::millis(500);  // RTT estimate
  static constexpr SimTime t2 = SimTime::seconds(4);   // non-INVITE rtx cap
  static constexpr SimTime t4 = SimTime::seconds(5);   // max network lifetime

  static constexpr SimTime timer_a() { return t1; }        // INVITE rtx
  static constexpr SimTime timer_b() { return 64 * t1; }   // INVITE timeout
  /// Timer C (RFC 3261 16.6 step 11): how long an INVITE client
  /// transaction may sit in Proceeding after a provisional before it is
  /// timed out. Without it, a peer that answers 180 and then dies leaks
  /// the transaction forever (a bug the chaos harness catches). The RFC
  /// requires > 3 minutes; OpenSER's fr_inv_timer serves the same role.
  static constexpr SimTime timer_c() { return SimTime::seconds(180); }
  static constexpr SimTime timer_d() {                     // wait rtx resp
    return SimTime::seconds(32);
  }
  static constexpr SimTime timer_e() { return t1; }        // non-INV rtx
  static constexpr SimTime timer_f() { return 64 * t1; }   // non-INV timeout
  static constexpr SimTime timer_g() { return t1; }        // INV resp rtx
  static constexpr SimTime timer_h() { return 64 * t1; }   // wait ACK
  static constexpr SimTime timer_i() { return t4; }        // wait ACK rtx
  static constexpr SimTime timer_j() { return 64 * t1; }   // non-INV absorb
  static constexpr SimTime timer_k() { return t4; }        // wait resp rtx
};

}  // namespace svk::txn

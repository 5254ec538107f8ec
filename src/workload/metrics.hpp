// Call-level metrics, as collected by the SIPp client/server scenarios in
// the paper's testbed.
#pragma once

#include <cstdint>

#include "common/stat_table.hpp"
#include "common/stats.hpp"

namespace svk::workload {

/// Counters kept by a UAC (SIPp client role). Snapshot-diff friendly: all
/// members are monotonically increasing except the setup-time histogram,
/// which the runner resets at the measurement boundary (and which kFields,
/// covering only the counters, leaves out of sums and diffs).
struct UacMetrics {
  std::uint64_t calls_attempted = 0;
  std::uint64_t calls_established = 0;   // 200 to INVITE received
  std::uint64_t calls_completed = 0;     // 200 to BYE received
  std::uint64_t calls_failed = 0;        // timeout or non-2xx final
  std::uint64_t calls_cancelled = 0;     // we abandoned before answer
  std::uint64_t trying_received = 0;     // 100 Trying (statefulness witness)
  std::uint64_t ringing_received = 0;
  std::uint64_t busy_500_received = 0;   // 500 Server Busy finals
  std::uint64_t busy_503_received = 0;   // 503 Service Unavailable finals
  /// calls_failed split: explicit 503 rejection vs transaction timeout.
  /// Rejected calls fail in ~one RTT and cost the chain almost nothing;
  /// timed-out calls burn 64*T1 of retransmissions first — the difference
  /// between controlled shedding and congestion collapse.
  std::uint64_t calls_rejected = 0;
  std::uint64_t calls_timed_out = 0;
  /// Times the generator paused for a 503 Retry-After.
  std::uint64_t backoff_pauses = 0;
  std::uint64_t retransmissions = 0;     // request retransmits we performed
  /// INVITE-sent to 200-received latency, milliseconds.
  Histogram setup_time_ms{10000.0, 2000};

  static constexpr StatField<UacMetrics> kFields[] = {
      {"uac.calls_attempted", &UacMetrics::calls_attempted},
      {"uac.calls_established", &UacMetrics::calls_established},
      {"uac.calls_completed", &UacMetrics::calls_completed},
      {"uac.calls_failed", &UacMetrics::calls_failed},
      {"uac.calls_cancelled", &UacMetrics::calls_cancelled},
      {"uac.trying_received", &UacMetrics::trying_received},
      {"uac.ringing_received", &UacMetrics::ringing_received},
      {"uac.busy_500_received", &UacMetrics::busy_500_received},
      {"uac.busy_503_received", &UacMetrics::busy_503_received},
      {"uac.calls_rejected", &UacMetrics::calls_rejected},
      {"uac.calls_timed_out", &UacMetrics::calls_timed_out},
      {"uac.backoff_pauses", &UacMetrics::backoff_pauses},
      {"uac.retransmissions", &UacMetrics::retransmissions},
  };
};

/// Counters kept by a UAS (SIPp server role).
struct UasMetrics {
  std::uint64_t invites_received = 0;
  std::uint64_t calls_established = 0;  // ACK received
  std::uint64_t calls_completed = 0;    // BYE answered (throughput unit)
  std::uint64_t byes_received = 0;
  std::uint64_t cancels_received = 0;   // CANCEL caught the call ringing
  std::uint64_t retransmitted_200 = 0;
  /// INVITEs that arrived without the X-Stateful mark, i.e. no proxy on the
  /// path took transaction state. Must stay 0 under any policy that
  /// guarantees at-least-one-stateful (the chaos-harness safety invariant).
  std::uint64_t unmarked_invites = 0;

  static constexpr StatField<UasMetrics> kFields[] = {
      {"uas.invites_received", &UasMetrics::invites_received},
      {"uas.calls_established", &UasMetrics::calls_established},
      {"uas.calls_completed", &UasMetrics::calls_completed},
      {"uas.byes_received", &UasMetrics::byes_received},
      {"uas.cancels_received", &UasMetrics::cancels_received},
      {"uas.retransmitted_200", &UasMetrics::retransmitted_200},
      {"uas.unmarked_invites", &UasMetrics::unmarked_invites},
  };
};

}  // namespace svk::workload

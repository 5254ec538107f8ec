// UAC — the SIPp client scenario: places calls at a configured rate through
// an outbound proxy, drives INVITE / ACK / BYE with real client
// transactions (UDP retransmission timers included), and records the
// metrics the paper reports: throughput, setup times, 100 Trying counts
// (the witness that some node held state), 500s and retransmissions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/slab.hpp"
#include "common/types.hpp"
#include "proxy/proxy.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/manager.hpp"
#include "workload/call_table.hpp"
#include "workload/metrics.hpp"

namespace svk::workload {

struct UacConfig {
  std::string host;
  Address address;
  Address first_hop;            // outbound proxy
  std::string target_domain;    // callee AOR domain, e.g. "cc.gatech.edu"
  int num_callees = 2;          // paper: two URIs
  double call_rate_cps = 1.0;
  bool poisson_arrivals = false;  // default: SIPp-style fixed pacing
  SimTime start_offset;           // dephases multiple generators
  SimTime hold_time;              // ACK -> BYE gap (SIPp default: none)
  /// Caller abandonment: with this probability a call is CANCELled after
  /// ring_abandon_after unless answered first (0 = never, the paper's
  /// workload).
  double cancel_probability = 0.0;
  SimTime ring_abandon_after = SimTime::seconds(2.0);
  /// Max-Forwards stamped on generated INVITE/BYE requests (RFC 3261
  /// default 70; conformance tests lower it to exercise hop-count
  /// exhaustion at a chosen hop).
  int max_forwards = 70;
  /// Attach Proxy-Authorization (preemptively, as SIPp does once
  /// challenged) using these credentials.
  bool attach_credentials = false;
  std::string auth_user;
  std::string auth_password;
  std::string auth_realm;
  std::string auth_nonce;
};

class Uac {
 public:
  Uac(sim::Simulator& sim, proxy::SipNetwork& network, Rng rng,
      UacConfig config);
  ~Uac();

  Uac(const Uac&) = delete;
  Uac& operator=(const Uac&) = delete;

  /// Begins call generation (first call after one inter-arrival gap).
  void start();
  void stop();

  /// The counters; `retransmissions` is read from the transaction layer,
  /// which counts each request retransmission once.
  [[nodiscard]] const UacMetrics& metrics() const {
    metrics_.retransmissions = txns_.retransmit_count();
    return metrics_;
  }
  [[nodiscard]] UacMetrics& metrics() {
    metrics_.retransmissions = txns_.retransmit_count();
    return metrics_;
  }
  [[nodiscard]] const UacConfig& config() const { return config_; }
  /// Calls currently in flight (diagnostics).
  [[nodiscard]] std::size_t open_calls() const { return calls_.size(); }
  /// Allocations made by the open-call store (steady-state check).
  [[nodiscard]] CallTableStats call_store_stats() const {
    return calls_.stats();
  }
  [[nodiscard]] const txn::TransactionManager& transactions() const {
    return txns_;
  }
  /// Installs a conformance tap on this UAC's transactions (txn/tap.hpp).
  void set_conformance_tap(txn::ConformanceTap* tap) {
    txns_.set_conformance_tap(tap);
  }

 private:
  /// One open call. Its Call-ID and From tag are read off the INVITE.
  struct Call {
    sip::MessagePtr invite;
    SimTime invite_sent;
    sip::MessagePtr ack;             // replayed on retransmitted 200s
    sip::SharedRoutes route_set;     // reversed Record-Route from the 200
    sip::Uri remote_target;          // 200's Contact
    std::string to_tag;
    bool established = false;
    bool cancelled = false;
  };

  void schedule_next_call();
  void place_call();
  /// Honors a 503's Retry-After: pushes the next-call time out to the
  /// backoff deadline (SIPp's -rsa behavior; RFC 3261 21.5.4).
  void apply_retry_after(const sip::Message& response);
  void on_datagram(Address from, const sip::MessagePtr& msg);
  void on_invite_response(common::SlabHandle handle,
                          const sip::MessagePtr& msg);
  void send_ack(Call& call, const sip::Message& ok);
  void send_bye(common::SlabHandle handle);
  void send_cancel(common::SlabHandle handle);
  /// Sends towards the first hop.
  [[nodiscard]] txn::SendFn sender();
  void maybe_attach_credentials(sip::Message& request) const;

  sim::Simulator& sim_;
  proxy::SipNetwork& network_;
  Rng rng_;
  UacConfig config_;
  /// config_.host and config_.target_domain, interned once: per-call Vias
  /// and URIs copy them.
  sip::Token host_token_;
  sip::Token domain_token_;
  txn::TransactionManager txns_;
  sip::BranchGenerator branches_;
  /// Mutable so the const accessor can refresh `retransmissions`.
  mutable UacMetrics metrics_;
  CallTable<Call, &Call::invite> calls_;
  /// "<host>-" and the current call's counter. Its capacity is reserved
  /// for the widest counter, so formatting a Call-ID never allocates.
  std::string call_id_text_;
  /// The INVITE's constant SDP body, built once: every INVITE shares it.
  sip::SharedBody sdp_;
  bool running_{false};
  sim::EventId next_call_timer_{0};
  /// No new calls before this time (503 Retry-After backoff).
  SimTime backoff_until_;
  std::uint64_t call_counter_{0};
};

}  // namespace svk::workload

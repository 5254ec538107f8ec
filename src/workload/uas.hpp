// UAS — the SIPp server scenario: answers INVITE with 180 + 200, absorbs
// retransmissions through real server transactions, retransmits the 200
// until ACKed (RFC 3261 13.3.1.4), and answers BYE with 200.
//
// Like the paper's SIPp boxes, the UAS has no CPU model: the testbed was
// provisioned so only the proxy under test saturates.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.hpp"
#include "proxy/proxy.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/manager.hpp"
#include "workload/metrics.hpp"

namespace svk::workload {

struct UasConfig {
  std::string host;
  Address address;
  /// Ringing time before the 200 OK (0 = answer immediately, the SIPp
  /// default). A nonzero delay opens the window in which CANCEL applies.
  SimTime answer_delay;
  txn::TimerConfig timers;
};

class Uas {
 public:
  Uas(sim::Simulator& sim, proxy::SipNetwork& network, UasConfig config);
  ~Uas();

  Uas(const Uas&) = delete;
  Uas& operator=(const Uas&) = delete;

  [[nodiscard]] const UasMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const UasConfig& config() const { return config_; }
  /// The contact URI remote parties use to reach this UAS directly.
  [[nodiscard]] sip::Uri contact_uri() const {
    return sip::Uri("", host_token_);
  }

  /// Registers `aor` ("user@domain") with the given registrar proxy via a
  /// real REGISTER transaction (RFC 3261 10). With `auto_refresh`, the
  /// binding is renewed at half its lifetime for the rest of the run.
  void register_with(Address registrar, const std::string& aor,
                     SimTime expires, bool auto_refresh = false);

  [[nodiscard]] std::uint64_t registrations_confirmed() const {
    return registrations_confirmed_;
  }

  /// Installs a conformance tap on this UAS's transactions (txn/tap.hpp).
  void set_conformance_tap(txn::ConformanceTap* tap) {
    txns_.set_conformance_tap(tap);
  }

 private:
  void on_datagram(Address from, const sip::MessagePtr& msg);
  void handle_invite(Address from, const sip::MessagePtr& msg);
  void handle_bye(Address from, const sip::MessagePtr& msg);
  void handle_ack(const sip::MessagePtr& msg);
  void handle_cancel(Address from, const sip::MessagePtr& msg);
  void answer(const std::string& call_id);
  void retransmit_200(const std::string& call_id);
  void send_register(Address registrar, const std::string& aor,
                     SimTime expires, bool auto_refresh);

  sim::Simulator& sim_;
  proxy::SipNetwork& network_;
  UasConfig config_;
  /// config_.host, interned once: the per-call Contact URI copies it.
  sip::Token host_token_;
  txn::TransactionManager txns_;
  UasMetrics metrics_;
  std::uint64_t tag_counter_{0};
  std::uint64_t register_counter_{0};
  std::uint64_t registrations_confirmed_{0};

  /// 200-OK retransmission state per call awaiting ACK.
  struct Pending200 {
    sip::MessagePtr response;
    Address peer;
    sim::EventId timer = 0;
    SimTime interval;
    SimTime deadline;
  };
  std::unordered_map<std::string, Pending200> pending_200_;

  /// Calls ringing (180 sent, 200 pending) — cancellable.
  struct PendingAnswer {
    sip::MessagePtr invite;
    /// Handle of the INVITE server transaction: O(1) generation-checked
    /// resolution at answer/cancel time, no owning key strings.
    txn::TxnHandle server_txn;
    std::string tag;
    Address peer;
    sim::EventId timer = 0;
  };
  std::unordered_map<std::string, PendingAnswer> ringing_;
};

}  // namespace svk::workload

// RFC 3261 section 17 transaction state machines.
//
// A transaction is the stateful unit the paper's servers maintain: it
// absorbs request retransmissions (server side), drives request
// retransmissions over UDP (client side), and times out abandoned exchanges.
// Four machines exist: INVITE/non-INVITE x client/server.
//
// Machines communicate with their owner purely through callbacks
// (I.25-style small interfaces): a wire-send function and transaction-user
// events. They never touch the network or the proxy core directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/slab.hpp"
#include "sim/event_action.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/tap.hpp"
#include "txn/timers.hpp"

namespace svk::txn {

/// Inline capacity of the transaction layer's callables. The largest
/// per-call capture in src/ fits: a proxy's client timeout callback (this,
/// the server transaction's handle and the request). The user agents'
/// callbacks capture this and an 8-byte slab handle or index. With the ops
/// pointer a callable is 48 bytes, and a transaction holds three.
inline constexpr std::size_t kCallbackInline = 40;

/// Inline capacity of a wire-send function: every SendFn in src/ captures
/// the owner and at most a destination address. A linger record keeps one,
/// so it is kept to 24 bytes with the ops pointer.
inline constexpr std::size_t kSendInline = 16;

/// A transaction-layer callable: copyable, kCallbackInline bytes inline, so
/// installing a callback allocates nothing.
template <typename Signature>
using Callback = sim::InlineFunction<Signature, kCallbackInline, true>;

/// Callbacks from a transaction to its user (proxy core or UA core).
struct ClientCallbacks {
  /// Invoked for every response passed up (provisional and final;
  /// retransmitted finals are absorbed and NOT passed up again).
  Callback<void(const sip::MessagePtr&)> on_response;
  /// Timer B/F fired with no final response.
  Callback<void()> on_timeout;
  /// Machine reached Terminated. A transaction that lingers in Completed
  /// (non-INVITE, or INVITE after a non-2xx final) must not set it: it
  /// ends as a linger record, which runs no user callbacks.
  Callback<void()> on_terminated;
};

struct ServerCallbacks {
  /// ACK arrived for a non-2xx final response (INVITE server only).
  Callback<void(const sip::MessagePtr&)> on_ack;
  /// Timer H fired: no ACK for our non-2xx final.
  Callback<void()> on_timeout;
  /// As ClientCallbacks::on_terminated; a non-INVITE server transaction
  /// must not set it.
  Callback<void()> on_terminated;
};

/// Function used to put a message on the wire (destination is bound by the
/// owner when constructing the transaction).
using SendFn =
    sim::InlineFunction<void(const sip::MessagePtr&), kSendInline, true>;
static_assert(sizeof(SendFn) == 24);

class TransactionManager;

/// Hop-by-hop ACK for a non-2xx final response (RFC 3261 17.1.1.3): same
/// branch/top Via as the INVITE, To copied from the response (it carries the
/// UAS tag).
[[nodiscard]] sip::MessagePtr build_non2xx_ack(const sip::Message& invite,
                                               const sip::Message& response);

/// Stable reference to one live machine: the table entry's precomputed
/// key hash plus the generation-tagged slab handle. POD, 16 bytes — owners
/// capture this in callbacks instead of an owning TransactionKey (two
/// string copies), and resolution is a generation check instead of a
/// probe. Outliving the machine is safe: a handle resolves to null once the
/// transaction is removed or has become a linger record.
struct TxnHandle {
  std::uint64_t hash = 0;
  common::SlabHandle slot;

  [[nodiscard]] bool null() const { return slot.null(); }
};

/// Client transaction (RFC 3261 17.1). Only a TransactionManager builds
/// one (create_client), and it retires the machine into a linger record
/// when timer D or K would start.
class ClientTransaction {
 public:
  ~ClientTransaction();

  ClientTransaction(const ClientTransaction&) = delete;
  ClientTransaction& operator=(const ClientTransaction&) = delete;

  [[nodiscard]] ClientState state() const { return state_; }
  [[nodiscard]] const sip::MessagePtr& request() const { return request_; }
  [[nodiscard]] int retransmit_count() const { return retransmits_; }
  [[nodiscard]] bool is_invite() const { return is_invite_; }

 private:
  friend class TransactionManager;
  friend class common::Slab<ClientTransaction>;  // constructs in place

  /// \param is_invite  selects the INVITE (17.1.1) vs non-INVITE (17.1.2)
  ///                   machine
  ClientTransaction(sim::Simulator& sim, bool is_invite,
                    sip::MessagePtr request, SendFn send,
                    ClientCallbacks callbacks);

  /// Transmits the request and arms the timers.
  void start();
  /// Feeds a response matched to this transaction.
  void receive_response(const sip::MessagePtr& response);
  void receive_response_impl(const sip::MessagePtr& response);
  void enter_completed_invite(const sip::MessagePtr& response);
  void send_ack_for(const sip::MessagePtr& response);
  void arm_retransmit(SimTime interval);
  void fire_timeout();
  void terminate();
  /// Runs the user's on_terminated, then the manager's removal hook.
  void notify_terminated();
  void cancel_timers();
  /// All wire output funnels through here so the tap sees every send.
  void wire_send(const sip::MessagePtr& msg);
  void notify(ClientEvent event, const sip::Message* msg = nullptr) {
    if (tap_ != nullptr) tap_->on_client_event(tap_id_, event, state_, msg);
  }

  sim::Simulator& sim_;
  bool is_invite_;
  sip::MessagePtr request_;
  SendFn send_;
  ClientCallbacks callbacks_;
  /// Conformance tap and this transaction's id there; the manager sets
  /// both before start(). Null disables all notifications.
  ConformanceTap* tap_{nullptr};
  TxnId tap_id_{0};
  /// Removal hook: the owning manager and this entry's handle. The manager
  /// sets both right after placing the transaction in its slab (the handle
  /// exists only then), before any event can fire. Null only once the
  /// transaction has become a linger record.
  TransactionManager* manager_{nullptr};
  TxnHandle handle_;

  ClientState state_;
  SimTime rtx_interval_;
  int retransmits_{0};
  sim::EventId rtx_timer_{0};
  sim::EventId timeout_timer_{0};  // B, C or F
};

/// Server transaction (RFC 3261 17.2). Only a TransactionManager builds
/// one (create_server); a non-INVITE machine is retired into a linger
/// record when timer J would start.
class ServerTransaction {
 public:
  ~ServerTransaction();

  ServerTransaction(const ServerTransaction&) = delete;
  ServerTransaction& operator=(const ServerTransaction&) = delete;

  /// Transaction user supplies a response to send toward the request
  /// source. Drives the state machine per its class (1xx/2xx/3xx-6xx).
  void respond(const sip::MessagePtr& response);

  [[nodiscard]] ServerState state() const { return state_; }
  [[nodiscard]] const sip::MessagePtr& request() const { return request_; }
  [[nodiscard]] int absorbed_count() const { return absorbed_; }
  [[nodiscard]] bool is_invite() const { return is_invite_; }

 private:
  friend class TransactionManager;
  friend class common::Slab<ServerTransaction>;  // constructs in place

  ServerTransaction(sim::Simulator& sim, bool is_invite,
                    sip::MessagePtr request, SendFn send,
                    ServerCallbacks callbacks);

  /// Feeds a retransmitted request or an ACK matched to this transaction.
  /// Retransmissions are absorbed: the last response (if any) is replayed
  /// and nothing propagates to the transaction user.
  void receive_request(const sip::MessagePtr& request);
  void receive_request_impl(const sip::MessagePtr& request);
  void respond_impl(const sip::MessagePtr& response);
  void arm_response_retransmit(SimTime interval);
  void terminate();
  /// Runs the user's on_terminated, then the manager's removal hook.
  void notify_terminated();
  void cancel_timers();
  void wire_send(const sip::MessagePtr& msg);
  void notify(ServerEvent event, const sip::Message* msg = nullptr) {
    if (tap_ != nullptr) tap_->on_server_event(tap_id_, event, state_, msg);
  }

  sim::Simulator& sim_;
  bool is_invite_;
  sip::MessagePtr request_;
  SendFn send_;
  ServerCallbacks callbacks_;
  ConformanceTap* tap_{nullptr};
  TxnId tap_id_{0};
  /// Removal hook, as on ClientTransaction: null only once the
  /// transaction has become a linger record.
  TransactionManager* manager_{nullptr};
  TxnHandle handle_;

  ServerState state_;
  sip::MessagePtr last_response_;
  SimTime rtx_interval_;
  int absorbed_{0};
  sim::EventId rtx_timer_{0};      // G
  sim::EventId timeout_timer_{0};  // H
  sim::EventId linger_timer_{0};   // I
};

}  // namespace svk::txn

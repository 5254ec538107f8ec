// Conformance tap: a read-only observer interface the checking subsystem
// (src/check) implements to shadow the production transaction machines.
//
// The interface lives in svk_txn so the transaction layer carries no
// dependency on the checker; the tap pointer is null by default and every
// notification site is guarded by a single branch, which keeps the
// disabled-path cost to a well-predicted never-taken test (the
// zero-cost-when-disabled guarantee DESIGN.md section 10 documents).
//
// Protocol: the manager announces creations and (post-termination)
// removals; each transaction announces every wire send it performs and, at
// the END of every externally visible event (API call or timer fire), the
// event kind and the state the event left it in. An observer therefore
// sees, per event: the sends it caused, then the event itself with the
// settled state, which it can compare against a reference machine.
//
// A transaction is named by the TxnId the tap returned at its creation. The
// id outlives the machine object: a transaction that finishes into a
// linger record (manager.hpp) keeps its id, and the record reports the
// same kinds of events a machine in that state would.
#pragma once

#include <cstdint>

#include "sip/branch.hpp"
#include "sip/message.hpp"

namespace svk::txn {

/// A transaction's identity towards the tap, assigned by the tap.
using TxnId = std::uint64_t;

enum class ClientState { kCalling, kTrying, kProceeding, kCompleted, kTerminated };
enum class ServerState { kTrying, kProceeding, kCompleted, kConfirmed, kTerminated };

/// Externally visible events of a client transaction's life.
enum class ClientEvent {
  kStart,            // start(): request sent, timers armed
  kRxResponse,       // receive_response()
  kTimerRetransmit,  // timer A/E fired
  kTimerTimeout,     // timer B/F/C fired
  kTimerLinger,      // timer D/K fired
};

enum class ServerEvent {
  kRxRequest,        // receive_request(): retransmission or ACK
  kRespond,          // respond(): TU supplied a response
  kTimerRetransmit,  // timer G fired
  kTimerTimeout,     // timer H fired
  kTimerLinger,      // timer I/J fired
};

class ConformanceTap {
 public:
  virtual ~ConformanceTap() = default;

  /// Returns the id every later notification for this transaction carries.
  virtual TxnId on_client_created(const sip::TransactionKey& key) = 0;
  virtual void on_client_send(TxnId id, const sip::MessagePtr& msg) = 0;
  /// `msg` is the response for kRxResponse, null for timer events/start.
  /// `state` is the transaction's state after the event.
  virtual void on_client_event(TxnId id, ClientEvent event, ClientState state,
                               const sip::Message* msg) = 0;
  virtual void on_client_removed(TxnId id) = 0;

  virtual TxnId on_server_created(const sip::TransactionKey& key) = 0;
  virtual void on_server_send(TxnId id, const sip::MessagePtr& msg) = 0;
  /// `msg` is the request for kRxRequest, the response for kRespond, null
  /// for timer events.
  virtual void on_server_event(TxnId id, ServerEvent event, ServerState state,
                               const sip::Message* msg) = 0;
  virtual void on_server_removed(TxnId id) = 0;
};

}  // namespace svk::txn

#include "txn/manager.hpp"

#include <cassert>
#include <tuple>
#include <utility>

#include "obs/trace.hpp"

namespace svk::txn {

namespace {

/// The stored key method of a server transaction: its retained request's
/// method, ACK-normalized like server_key (transactions are never created
/// from ACKs, but the normalization keeps lookup and creation symmetric).
sip::Method server_stored_method(const ServerTransaction& txn) {
  const sip::Method m = txn.request()->method();
  return m == sip::Method::kAck ? sip::Method::kInvite : m;
}

/// Whether `probe` names the transaction whose record holds `msg`: J's and
/// K's finals carry their transaction's top Via and CSeq method, and D's
/// INVITE is its transaction's request.
bool record_matches(const sip::TxnProbe& probe, const sip::Message& msg) {
  const sip::Via& via = msg.top_via();
  return probe.matches(via.branch, via.sent_by, msg.cseq().method);
}

/// Smallest ring a lane allocates on its first record.
constexpr std::size_t kMinRing = 16;

}  // namespace

void TransactionManager::LingerLane::push(Record&& record) {
  if (tail - head == ring.size()) {
    // Full (or empty): double, re-placing the live records by sequence.
    std::vector<Record> bigger(ring.empty() ? kMinRing : 2 * ring.size());
    assert(bigger.size() <= Entry::kRecordBit);
    for (std::uint64_t seq = head; seq != tail; ++seq) {
      bigger[seq & (bigger.size() - 1)] = std::move(at(seq));
    }
    ring = std::move(bigger);
  }
  at(tail++) = std::move(record);
}

TransactionManager::TransactionManager(sim::Simulator& sim, TimerConfig)
    : sim_(sim) {
  lanes_[kTimerJ].delay = TimerConfig::timer_j();
  lanes_[kTimerK].delay = TimerConfig::timer_k();
  lanes_[kTimerD].delay = TimerConfig::timer_d();
}

TransactionManager::~TransactionManager() {
  for (LingerLane& lane : lanes_) sim_.cancel(lane.event);
}

Dispatch TransactionManager::dispatch(const sip::MessagePtr& msg) {
  assert(msg);
  if (msg->is_request()) {
    const sip::TxnProbe probe = sip::key_for_request(*msg);
    if (const Entry* found = find_server_entry(probe)) {
      const Entry entry = *found;  // handling may move the table
      if (entry.is_record()) {
        absorb_request(entry, msg);
      } else {
        server_slab_.get(entry.slot())->receive_request(msg);
      }
      return Dispatch::kHandledByServerTxn;
    }
    // Miss: the element core usually hands this same message straight back
    // to create_server — keep the probe so it is not recomputed.
    cache_probe(msg, probe);
    return Dispatch::kNewRequest;
  }
  const sip::TxnProbe probe = sip::key_for_response(*msg);
  if (const Entry* found = find_client_entry(probe)) {
    const Entry entry = *found;
    if (entry.is_record()) {
      absorb_response(entry, msg);
    } else {
      client_slab_.get(entry.slot())->receive_response(msg);
    }
    return Dispatch::kHandledByClientTxn;
  }
  return Dispatch::kStrayResponse;
}

bool TransactionManager::has_server(const sip::Message& request) {
  return find_server_entry(sip::key_for_request(request)) != nullptr;
}

bool TransactionManager::has_client(const sip::Message& response) {
  return find_client_entry(sip::key_for_response(response)) != nullptr;
}

ClientTransaction& TransactionManager::create_client(
    const sip::MessagePtr& request, SendFn send, ClientCallbacks callbacks,
    TxnHandle* out_handle) {
  // The response will arrive with our Via on top, so the client key is
  // derived from the request's current top Via. The transaction retains the
  // request for its whole lifetime, so the table entry needs no owning key:
  // hash once here, compare against the retained request on probe.
  const sip::Via& via = request->top_via();
  const sip::Method method = request->cseq().method;
  TxnHandle handle;
  handle.hash = sip::txn_key_hash(via.branch, via.sent_by, method);
  handle.slot = client_slab_.emplace(
      sim_, method == sip::Method::kInvite, request, std::move(send),
      std::move(callbacks));
  ClientTransaction& ref = *client_slab_.get(handle.slot);
  // The removal hook needs the handle, which exists only now.
  ref.manager_ = this;
  ref.handle_ = handle;
  ++stats_.client_created;
  clients_.insert(handle.hash, Entry::live(handle.slot));
  note_active();
  if (tap_ != nullptr) {
    ref.tap_ = tap_;
    ref.tap_id_ = tap_->on_client_created(
        sip::TransactionKey{via.branch.str(), via.sent_by.str(), method});
  }
  if (out_handle != nullptr) *out_handle = handle;
  ref.start();
  return ref;
}

ServerTransaction& TransactionManager::create_server(
    const sip::MessagePtr& request, SendFn send, ServerCallbacks callbacks,
    TxnHandle* out_handle) {
  const sip::TxnProbe probe = request_probe(request);
  TxnHandle handle;
  handle.hash = probe.hash;
  handle.slot = server_slab_.emplace(
      sim_, request->method() == sip::Method::kInvite, request,
      std::move(send), std::move(callbacks));
  ServerTransaction& ref = *server_slab_.get(handle.slot);
  ref.manager_ = this;
  ref.handle_ = handle;
  ++stats_.server_created;
  servers_.insert(handle.hash, Entry::live(handle.slot));
  note_active();
  if (tap_ != nullptr) {
    ref.tap_ = tap_;
    ref.tap_id_ = tap_->on_server_created(sip::server_key(*request));
  }
  if (out_handle != nullptr) *out_handle = handle;
  return ref;
}

TransactionManager::Entry* TransactionManager::find_server_entry(
    const sip::TxnProbe& probe) {
  return servers_.find(probe.hash, [&](const Entry& entry) {
    if (entry.is_record()) return record_matches(probe, *record(entry).msg);
    const ServerTransaction* txn = server_slab_.get(entry.slot());
    const sip::Via& via = txn->request()->top_via();
    return probe.matches(via.branch, via.sent_by, server_stored_method(*txn));
  });
}

TransactionManager::Entry* TransactionManager::find_client_entry(
    const sip::TxnProbe& probe) {
  return clients_.find(probe.hash, [&](const Entry& entry) {
    if (entry.is_record()) return record_matches(probe, *record(entry).msg);
    const ClientTransaction* txn = client_slab_.get(entry.slot());
    const sip::Via& via = txn->request()->top_via();
    return probe.matches(via.branch, via.sent_by,
                         txn->request()->cseq().method);
  });
}

std::size_t TransactionManager::record_count() const {
  std::size_t n = 0;
  for (const LingerLane& lane : lanes_) n += lane.tail - lane.head;
  return n;
}

std::size_t TransactionManager::active_count() const {
  return machine_count() - retired_clients_.size() -
         retired_servers_.size() + record_count();
}

sip::TxnProbe TransactionManager::request_probe(const sip::MessagePtr& msg) {
  if (probe_anchor_ == msg) return cached_probe_;
  return sip::key_for_request(*msg);
}

void TransactionManager::schedule_client_removal(TxnHandle handle) {
  // Removal is deferred to a fresh event so the transaction's member
  // functions can safely finish executing on the current stack. A stale
  // handle (slot generation moved on) means the entry is already gone.
  sim_.schedule(SimTime{}, [this, handle] {
    if (ClientTransaction* txn = client_slab_.get(handle.slot)) {
      if (tap_ != nullptr) tap_->on_client_removed(txn->tap_id_);
      clients_.erase(handle.hash, [&](const Entry& entry) {
        return entry == Entry::live(handle.slot);
      });
      client_slab_.erase(handle.slot);
    }
    note_active();
  });
}

void TransactionManager::schedule_server_removal(TxnHandle handle) {
  sim_.schedule(SimTime{}, [this, handle] {
    if (ServerTransaction* txn = server_slab_.get(handle.slot)) {
      if (tap_ != nullptr) tap_->on_server_removed(txn->tap_id_);
      servers_.erase(handle.hash, [&](const Entry& entry) {
        return entry == Entry::live(handle.slot);
      });
      server_slab_.erase(handle.slot);
    }
    note_active();
  });
}

// ---------------------------------------------------------------------------
// Linger records
// ---------------------------------------------------------------------------

void TransactionManager::retire(ClientTransaction& txn,
                                const sip::MessagePtr& final_response) {
  // A record runs no user callbacks, and no lingering transaction in src/
  // installs one.
  assert(!txn.callbacks_.on_terminated);
  Record record;
  record.hash = txn.handle_.hash;
  record.tap_id = txn.tap_id_;
  const Lane lane = txn.is_invite_ ? kTimerD : kTimerK;
  if (lane == kTimerD) {
    // Re-ACKs of retransmitted finals are built from the INVITE.
    record.msg = std::move(txn.request_);
    record.send = std::move(txn.send_);
  } else {
    // The final, not the request: it usually shares its block with the
    // next hop's Timer-J record, and it pins no target block.
    record.msg = final_response;
  }
  free_retired();
  txn.manager_ = nullptr;
  retired_clients_.push_back(txn.handle_.slot);
  push_record(lane, std::move(record), txn.handle_.slot);
}

void TransactionManager::retire(ServerTransaction& txn) {
  assert(!txn.callbacks_.on_terminated);
  Record record;
  record.hash = txn.handle_.hash;
  record.tap_id = txn.tap_id_;
  record.msg = std::move(txn.last_response_);
  record.send = std::move(txn.send_);
  free_retired();
  txn.manager_ = nullptr;
  retired_servers_.push_back(txn.handle_.slot);
  push_record(kTimerJ, std::move(record), txn.handle_.slot);
}

void TransactionManager::push_record(Lane lane, Record record,
                                     common::SlabHandle slot) {
  LingerLane& l = lanes_[lane];
  // The record is found by its message's key.
  assert(sip::key_for_response(*record.msg).hash == record.hash);
  // The expiry and order key the machine's linger timer would have taken.
  record.expiry = sim_.now() + l.delay;
  record.key = sim_.reserve_order_key();
  assert(l.tail == l.head ||
         std::tie(l.at(l.tail - 1).expiry, l.at(l.tail - 1).key) <=
             std::tie(record.expiry, record.key));
  const std::uint64_t hash = record.hash;
  const std::uint64_t seq = l.tail;
  l.push(std::move(record));
  Entry* entry = table(lane).find(
      hash, [&](const Entry& e) { return e == Entry::live(slot); });
  assert(entry != nullptr);
  *entry = Entry::record(lane, seq);
  if (l.event == 0) arm(lane);
}

void TransactionManager::free_retired() {
  if (sim_.executed_count() == retired_epoch_) return;
  for (const common::SlabHandle slot : retired_clients_) {
    client_slab_.erase(slot);
  }
  for (const common::SlabHandle slot : retired_servers_) {
    server_slab_.erase(slot);
  }
  retired_clients_.clear();
  retired_servers_.clear();
  retired_epoch_ = sim_.executed_count();
}

void TransactionManager::arm(Lane lane) {
  LingerLane& l = lanes_[lane];
  const Record& due = l.at(l.due);
  l.event = sim_.schedule_reserved(due.expiry, due.key,
                                   [this, lane] { expire(lane); });
}

void TransactionManager::expire(Lane lane) {
  LingerLane& l = lanes_[lane];
  l.event = 0;
  const std::uint64_t seq = l.due++;
  Record& r = l.at(seq);
  // A Terminated transaction sends nothing, but keeps its message until
  // removal: the message is its key.
  r.terminated = true;
  const TxnId tap_id = r.tap_id;
  // As for a machine, removal is a fresh zero-delay event.
  sim_.schedule(SimTime{}, [this, lane, seq] { remove_record(lane, seq); });
  if (tap_ != nullptr) {
    if (lane == kTimerJ) {
      tap_->on_server_event(tap_id, ServerEvent::kTimerLinger,
                            ServerState::kTerminated, nullptr);
    } else {
      tap_->on_client_event(tap_id, ClientEvent::kTimerLinger,
                            ClientState::kTerminated, nullptr);
    }
  }
  if (l.due != l.tail) arm(lane);
}

void TransactionManager::remove_record(Lane lane, std::uint64_t seq) {
  LingerLane& l = lanes_[lane];
  // Expiries run in FIFO order and each schedules its removal at once, so
  // removals do too.
  assert(seq == l.head && l.at(seq).terminated);
  Record& r = l.at(seq);
  if (tap_ != nullptr) {
    if (lane == kTimerJ) {
      tap_->on_server_removed(r.tap_id);
    } else {
      tap_->on_client_removed(r.tap_id);
    }
  }
  table(lane).erase(r.hash, [&](const Entry& entry) {
    return entry == Entry::record(lane, seq);
  });
  r.msg.reset();
  r.send = nullptr;
  ++l.head;
  note_active();
}

void TransactionManager::absorb_request(Entry entry,
                                        const sip::MessagePtr& request) {
  // Only a non-INVITE server lingers as a record: a retransmitted request
  // replays the final in Completed and is dropped once Terminated
  // (RFC 3261 17.2.2).
  const Record& r = record(entry);
  const TxnId tap_id = r.tap_id;
  const bool completed = !r.terminated;
  if (completed) {
    // Copies: sending may append records and move the ring.
    const sip::MessagePtr response = r.msg;
    SendFn send = r.send;
    if (tap_ != nullptr) tap_->on_server_send(tap_id, response);
    send(response);
  }
  if (tap_ != nullptr) {
    tap_->on_server_event(
        tap_id, ServerEvent::kRxRequest,
        completed ? ServerState::kCompleted : ServerState::kTerminated,
        &*request);
  }
}

void TransactionManager::absorb_response(Entry entry,
                                         const sip::MessagePtr& response) {
  // Completed absorbs every retransmitted final; an INVITE client re-ACKs
  // a non-2xx one (RFC 3261 17.1.1.2).
  const Record& r = record(entry);
  const TxnId tap_id = r.tap_id;
  const bool completed = !r.terminated;
  const int code = response->status_code();
  if (completed && entry.lane() == kTimerD && sip::is_final(code) &&
      !sip::is_success(code)) {
    const sip::MessagePtr ack = build_non2xx_ack(*r.msg, *response);
    SendFn send = r.send;
    if (tap_ != nullptr) tap_->on_client_send(tap_id, ack);
    send(ack);
  }
  if (tap_ != nullptr) {
    tap_->on_client_event(
        tap_id, ClientEvent::kRxResponse,
        completed ? ClientState::kCompleted : ClientState::kTerminated,
        &*response);
  }
}

void TransactionManager::note_active() {
  if (const obs::Sinks& obs = sim_.obs(); obs.tracer != nullptr) {
    obs.tracer->counter("active_txns", sim_.now(), trace_tid_, "count",
                        static_cast<double>(active_count()));
  }
}

}  // namespace svk::txn

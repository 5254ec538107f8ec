// Transaction table: matches incoming messages to transactions
// (RFC 3261 17.1.3 / 17.2.3) and owns transaction lifetimes.
//
// Storage is the flat slab-backed state store (DESIGN.md §12): live
// machines live in per-manager Slabs (stable addresses, freelist reuse,
// generation tags), and the client/server tables are FlatTables holding
// just (precomputed key hash, entry) per transaction. A live machine's key
// is never copied into the table — equality dereferences the slab-resident
// machine and compares against its retained request's top Via — so a
// dispatch computes one TxnProbe from string_views and probes with zero
// allocation, and steady-state create/dispatch/erase touches no allocator.
//
// Linger records. A transaction that finishes into a linger state — timer
// J (non-INVITE server Completed), K (non-INVITE client Completed) or D
// (INVITE client Completed after a non-2xx final) — only absorbs
// retransmissions until its timer fires. Almost every transaction a loaded
// element holds is in one of these states, so each becomes a compact record
// and its machine is freed: the key hash, the expiry and order key its
// linger timer would have taken, its tap id, its send function and one
// message, which also carries its key: J keeps the final to replay, K the
// final that completed it and D the INVITE to build re-ACKs from. Each has
// the transaction's top Via and CSeq method, so a probe of a record reads
// them from the message, as a probe of a live machine reads them from its
// retained request. A lane per timer keeps the records in a power-of-two
// ring. The delay is a per-manager constant, so FIFO order is expiry order,
// and only the oldest unexpired record of a lane has a wheel event, at that
// record's reserved (expiry, key): the records expire exactly where the
// machines' timers would have fired. An expired record stays in the table,
// Terminated, until the same deferred removal event a machine gets, so a
// message dispatched on the expiry tick sees it exactly when it saw the
// machine.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/flat_table.hpp"
#include "common/slab.hpp"
#include "common/stat_table.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/transaction.hpp"

namespace svk::txn {

/// What the dispatcher decided about an incoming message.
enum class Dispatch {
  /// Request matched no transaction: the element core must handle it
  /// (create a transaction, forward statelessly, ...).
  kNewRequest,
  /// Request (or ACK) matched an existing server transaction and was
  /// handled there — typically a retransmission, absorbed.
  kHandledByServerTxn,
  /// Response matched a client transaction and was consumed by it.
  kHandledByClientTxn,
  /// Response matched nothing: forward statelessly (proxy) or drop (UA).
  kStrayResponse,
};

/// Transactions created per side, per manager.
struct TxnStats {
  std::uint64_t client_created = 0;
  std::uint64_t server_created = 0;

  static constexpr StatField<TxnStats> kFields[] = {
      {"txn.client_created", &TxnStats::client_created},
      {"txn.server_created", &TxnStats::server_created},
  };
};

/// Owns all transactions of one element (proxy or user agent).
class TransactionManager {
 public:
  /// The TimerConfig argument is an empty tag (see txn/timers.hpp): a
  /// compatibility surface that the next benchmark change deletes.
  explicit TransactionManager(sim::Simulator& sim, TimerConfig = {});
  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Routes an incoming message into the transaction table, live machines
  /// and linger records alike.
  Dispatch dispatch(const sip::MessagePtr& msg);

  /// True when `request` would be handled by a server transaction (live or
  /// lingering), i.e. dispatch would absorb it.
  [[nodiscard]] bool has_server(const sip::Message& request);
  /// True when `response` would be consumed by a client transaction.
  [[nodiscard]] bool has_client(const sip::Message& response);

  /// Creates and starts a client transaction for `request` (whose top Via
  /// must already carry this element's branch). `callbacks.on_terminated`
  /// may be empty; the transaction calls the manager's removal hook after
  /// it either way.
  /// `out_handle`, when given, receives the new entry's handle.
  ClientTransaction& create_client(const sip::MessagePtr& request,
                                   SendFn send, ClientCallbacks callbacks,
                                   TxnHandle* out_handle = nullptr);

  /// Creates a server transaction for an incoming `request`. A probe
  /// computed for this exact message earlier in the same event (the
  /// find-miss that led here) is reused rather than recomputed.
  ServerTransaction& create_server(const sip::MessagePtr& request,
                                   SendFn send, ServerCallbacks callbacks,
                                   TxnHandle* out_handle = nullptr);

  /// O(1) handle resolution (generation-checked; null once the machine is
  /// removed or has become a linger record).
  [[nodiscard]] ServerTransaction* find_server(TxnHandle handle) {
    return attached(server_slab_.get(handle.slot));
  }
  [[nodiscard]] ClientTransaction* find_client(TxnHandle handle) {
    return attached(client_slab_.get(handle.slot));
  }

  /// Transactions that exist per RFC 3261: live machines plus linger
  /// records, until their removal.
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] const TxnStats& stats() const { return stats_; }
  /// Transactions created on both sides.
  [[nodiscard]] std::uint64_t created_count() const {
    return stats_.client_created + stats_.server_created;
  }
  /// Request retransmissions sent by this element's client transactions.
  [[nodiscard]] std::uint64_t retransmit_count() const {
    return retransmits_;
  }

  /// Live machine objects (detached ones awaiting their deferred free
  /// included) and linger records, per side of the store.
  [[nodiscard]] std::size_t machine_count() const {
    return client_slab_.size() + server_slab_.size();
  }
  [[nodiscard]] std::size_t record_count() const;

  /// Node id used for trace events (the owning element's address); 0 until
  /// set. Tracing reads the simulator's observability sinks.
  void set_trace_tid(std::uint32_t tid) { trace_tid_ = tid; }

  /// Installs the conformance tap on this table: transactions created from
  /// now on notify the tap of their creation, every wire send, every
  /// externally visible event, and their removal. Null disables checking.
  /// Install before traffic flows; already-live transactions are not
  /// retrofitted.
  void set_conformance_tap(ConformanceTap* tap) { tap_ = tap; }

 private:
  friend class ClientTransaction;
  friend class ServerTransaction;

  /// The linger timers whose transactions become records; each has a lane.
  enum Lane : std::uint8_t { kTimerJ, kTimerK, kTimerD, kLanes };

  /// A finished transaction waiting out its linger timer.
  struct Record {
    SendFn send;  // J, D: the machine's wire send; K: empty
    std::uint64_t hash = 0;
    SimTime expiry;
    sim::OrderKey key = 0;  // the order key the linger timer would have had
    TxnId tap_id = 0;
    /// Held until removal; its top Via and CSeq method are the record's
    /// key. J: the final to replay; K: the final that completed it; D: the
    /// INVITE to build re-ACKs from.
    sip::MessagePtr msg;
    bool terminated = false;  // linger fired; removal pending
  };
  static_assert(sizeof(Record) == 72);

  /// The records of one linger timer, oldest first, in a power-of-two ring
  /// indexed by sequence number: [head, due) have expired and wait for
  /// their removal event, [due, tail) still linger.
  struct LingerLane {
    SimTime delay;
    std::vector<Record> ring;  // empty until the first record
    std::uint64_t head = 0;
    std::uint64_t due = 0;
    std::uint64_t tail = 0;
    sim::EventId event = 0;  // expiry of record `due`; 0 when none pending

    [[nodiscard]] Record& at(std::uint64_t seq) {
      return ring[seq & (ring.size() - 1)];
    }
    void push(Record&& record);
  };

  /// A table entry: a live machine's slab handle, or a linger record's lane
  /// and sequence number (modulo 2^32). A record's tag has the top bit set;
  /// slab generations never reach it.
  struct Entry {
    static constexpr std::uint32_t kRecordBit = 1u << 31;
    std::uint32_t index = 0;
    std::uint32_t tag = 0;

    static Entry live(common::SlabHandle h) {
      assert(h.generation < kRecordBit);
      return Entry{h.index, h.generation};
    }
    static Entry record(Lane lane, std::uint64_t seq) {
      return Entry{static_cast<std::uint32_t>(seq), kRecordBit | lane};
    }
    [[nodiscard]] bool is_record() const { return (tag & kRecordBit) != 0; }
    [[nodiscard]] common::SlabHandle slot() const { return {index, tag}; }
    [[nodiscard]] Lane lane() const {
      return static_cast<Lane>(tag & ~kRecordBit);
    }
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// A machine that became a record is detached (no manager) until the
  /// deferred free: handles no longer resolve to it.
  template <typename Txn>
  [[nodiscard]] static Txn* attached(Txn* txn) {
    return txn != nullptr && txn->manager_ != nullptr ? txn : nullptr;
  }

  // Removal hooks, called by a transaction after its user's
  // on_terminated.
  void schedule_client_removal(TxnHandle handle);
  void schedule_server_removal(TxnHandle handle);

  /// Called by a machine entering a linger state: moves what the record
  /// needs out of it, swaps its table entry for the record's, and detaches
  /// it. The object itself is freed at a later event, because callers on
  /// the current stack still hold it. A client passes the final that
  /// completed it.
  void retire(ClientTransaction& txn, const sip::MessagePtr& final_response);
  void retire(ServerTransaction& txn);
  void push_record(Lane lane, Record record, common::SlabHandle slot);
  /// Frees detached machines retired by an earlier event.
  void free_retired();
  /// Puts lane `lane`'s oldest unexpired record in the wheel.
  void arm(Lane lane);
  /// The wheel event of a lane: the due record's linger timer fires.
  void expire(Lane lane);
  /// The deferred removal of an expired record.
  void remove_record(Lane lane, std::uint64_t seq);
  /// A retransmission matched record `entry`: answer it as the machine in
  /// Completed (or Terminated) would have.
  void absorb_request(Entry entry, const sip::MessagePtr& request);
  void absorb_response(Entry entry, const sip::MessagePtr& response);

  [[nodiscard]] Record& record(Entry entry) {
    return lanes_[entry.lane()].at(entry.index);
  }
  [[nodiscard]] common::FlatTable<Entry>& table(Lane lane) {
    return lane == kTimerJ ? servers_ : clients_;
  }
  [[nodiscard]] Entry* find_server_entry(const sip::TxnProbe& probe);
  [[nodiscard]] Entry* find_client_entry(const sip::TxnProbe& probe);

  /// Emits the active-transaction counter track after a table change.
  void note_active();
  /// The probe for `msg`, reusing the one cached by a find earlier in the
  /// same event when it was computed for this very message.
  [[nodiscard]] sip::TxnProbe request_probe(const sip::MessagePtr& msg);
  /// Caches `probe` as the last one computed (anchoring the message so the
  /// views stay valid and the pooled block cannot be recycled under us).
  void cache_probe(const sip::MessagePtr& msg, const sip::TxnProbe& probe) {
    probe_anchor_ = msg;
    cached_probe_ = probe;
  }

  sim::Simulator& sim_;
  ConformanceTap* tap_{nullptr};
  std::uint32_t trace_tid_{0};
  TxnStats stats_;
  std::uint64_t retransmits_{0};
  common::Slab<ClientTransaction> client_slab_;
  common::Slab<ServerTransaction> server_slab_;
  common::FlatTable<Entry> clients_;
  common::FlatTable<Entry> servers_;
  LingerLane lanes_[kLanes];
  /// Detached machines and the executed-event count when they were
  /// detached; freed once a later event retires another.
  std::vector<common::SlabHandle> retired_clients_;
  std::vector<common::SlabHandle> retired_servers_;
  std::uint64_t retired_epoch_{0};
  /// Create-after-miss probe cache: the dispatch/find that reported "no
  /// transaction" already hashed the key; create_server reuses it when the
  /// same message is handed straight back.
  sip::MessagePtr probe_anchor_;
  sip::TxnProbe cached_probe_;
};

}  // namespace svk::txn

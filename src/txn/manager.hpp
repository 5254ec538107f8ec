// Transaction table: matches incoming messages to transactions
// (RFC 3261 17.1.3 / 17.2.3) and owns transaction lifetimes.
//
// Storage is the flat slab-backed state store (DESIGN.md §12): transactions
// live in per-manager Slabs (stable addresses, freelist reuse, generation
// tags), and the client/server tables are FlatTables holding just
// (precomputed key hash, slab handle) per entry. The key itself is never
// copied into the table — equality dereferences the slab-resident
// transaction and compares against its retained request's top Via — so a
// dispatch computes one TxnProbe from string_views and probes with zero
// allocation, and steady-state create/dispatch/erase touches no allocator.
#pragma once

#include <cstdint>

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
  TransactionManager(sim::Simulator& sim, TimerConfig timers);

  /// Routes an incoming message into the transaction table.
  Dispatch dispatch(const sip::MessagePtr& msg);

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

  /// Looks up the server transaction that would match `msg`, if any.
  [[nodiscard]] ServerTransaction* find_server(const sip::Message& msg);
  [[nodiscard]] ClientTransaction* find_client(const sip::Message& msg);
  [[nodiscard]] ServerTransaction* find_server(const sip::TransactionKey& key);
  [[nodiscard]] ClientTransaction* find_client(const sip::TransactionKey& key);
  /// O(1) handle resolution (generation-checked; null when gone).
  [[nodiscard]] ServerTransaction* find_server(TxnHandle handle) {
    return server_slab_.get(handle.slot);
  }
  [[nodiscard]] ClientTransaction* find_client(TxnHandle handle) {
    return client_slab_.get(handle.slot);
  }

  [[nodiscard]] std::size_t active_count() const {
    return client_slab_.size() + server_slab_.size();
  }
  [[nodiscard]] const TxnStats& stats() const { return stats_; }
  /// Transactions created on both sides.
  [[nodiscard]] std::uint64_t created_count() const {
    return stats_.client_created + stats_.server_created;
  }

  /// State-store allocation counters, aggregated over both sides (perf
  /// tests pin that these stop moving once the pool is warm).
  [[nodiscard]] std::uint64_t store_allocs() const {
    return client_slab_.stats().chunk_allocs +
           server_slab_.stats().chunk_allocs + clients_.stats().grows +
           servers_.stats().grows;
  }

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
  // Removal hooks, called by a transaction after its user's
  // on_terminated.
  friend class ClientTransaction;
  friend class ServerTransaction;
  void schedule_client_removal(TxnHandle handle);
  void schedule_server_removal(TxnHandle handle);
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

  [[nodiscard]] ServerTransaction* find_server(const sip::TxnProbe& probe);
  [[nodiscard]] ClientTransaction* find_client(const sip::TxnProbe& probe);

  sim::Simulator& sim_;
  TimerConfig timers_;
  ConformanceTap* tap_{nullptr};
  std::uint32_t trace_tid_{0};
  TxnStats stats_;
  common::Slab<ClientTransaction> client_slab_;
  common::Slab<ServerTransaction> server_slab_;
  common::FlatTable<common::SlabHandle> clients_;
  common::FlatTable<common::SlabHandle> servers_;
  /// Create-after-miss probe cache: the dispatch/find that reported "no
  /// transaction" already hashed the key; create_server reuses it when the
  /// same message is handed straight back.
  sip::MessagePtr probe_anchor_;
  sip::TxnProbe cached_probe_;
};

}  // namespace svk::txn

// Hierarchical timer wheel — the simulator's pending-event store.
//
// Replaces the binary heap + tombstone-set core. Design goals, in order:
//
//  1. Bit-identical execution order. Events run in (time, order-key) order.
//     The key is a caller-supplied 64-bit value — for plain insert() it is a
//     monotonic sequence number, reproducing the old FIFO tie-break; the
//     simulator composes it as (locus rank << kLocusSeqBits | per-locus seq)
//     so that the key is a pure function of *which host* scheduled the event
//     and *how many* events that host had scheduled before, independent of
//     how hosts interleave globally. A level-0 slot holds exactly one
//     nanosecond tick, and pop_until() selects the minimum-key node within
//     the tick.
//  2. O(1) schedule and true O(1) cancel. Events live in intrusive
//     doubly-linked slot lists; an EventId resolves to its pool node in
//     O(1) (index + generation), so cancel unlinks and recycles the node
//     immediately instead of leaving a tombstone resident until the queue
//     drains past it.
//  3. Zero steady-state allocation. Nodes come from a slab pool with a
//     freelist; the callable lives inline in the node (EventAction's
//     64-byte buffer). Once the pool is warm, schedule/cancel/execute
//     touch no allocator.
//
// Structure: kLevels wheels of 64 slots over the raw nanosecond time.
// Level k buckets events whose expiry differs from the cursor in bit
// group [6k, 6k+6). Level 0 therefore spans the cursor's current 64 ns
// window and each of its slots is a single tick; level 7 spans ~78 hours.
// Events beyond the top level go to an overflow min-heap ordered by
// (time, key); cancelled overflow entries are compacted amortized so the
// heap never holds more than ~half dead entries.
//
// Ordering invariants (why determinism survives):
//  * Same-tick events always hash to the same slot at every level, so a
//    tick's events are always together in one list; pop_until() scans that
//    (short) list for the minimum key, so insertion order never matters.
//  * A cascade drains the *lowest* occupied slot into strictly lower,
//    provably empty levels; overflow events are pulled in (time, key) heap
//    order. Neither changes which list a tick's events end up in.
//
// The cursor (wheel_now_) advances monotonically as the earliest event is
// located; it is independent of the simulator's clock. The one place it can
// run ahead of schedulable time — a peek cascades toward a far-future event,
// run_until() stops short, and a later schedule lands before the cursor —
// is handled by rewind(): collect the (few) live events and re-bucket them
// against the earlier cursor. Rare by construction and counted in Stats.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "sim/event_action.hpp"

namespace svk::sim {

/// Identifies a scheduled event for cancellation. Encodes (generation,
/// pool index); stale ids (already run or cancelled) fail the generation
/// check and cancel becomes a harmless no-op. Never 0 (generations start
/// at 1), so 0 can be used as a "no event" sentinel.
using EventId = std::uint64_t;

/// Deterministic same-tick tie-break for an event: the upper bits carry the
/// execution locus's rank (host address; 0 = harness/setup), the lower bits
/// a per-locus sequence number. Because every locus executes its own events
/// in an order independent of how other loci interleave, the key — unlike a
/// global sequence number — depends only on that host's own history, which
/// is the foundation of the golden digests' event order.
using OrderKey = std::uint64_t;

/// Bits reserved for the per-locus sequence (~10^12 events per locus).
inline constexpr int kLocusSeqBits = 40;

[[nodiscard]] constexpr OrderKey make_order_key(std::uint32_t locus_rank,
                                                std::uint64_t seq) {
  return (static_cast<OrderKey>(locus_rank) << kLocusSeqBits) | seq;
}

class TimerWheel {
 public:
  /// Allocation and behavior counters. `slab_allocs` is the number of
  /// node-slab mallocs ever made — the perf-smoke CI gate divides
  /// `scheduled` by it to detect steady-state allocation regressions.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t slab_allocs = 0;
    std::uint64_t cascades = 0;
    std::uint64_t overflow_inserts = 0;
    std::uint64_t overflow_compactions = 0;
    std::uint64_t rewinds = 0;
  };

  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 8;  // 64^8 ns ~ 78 hours of horizon
  static constexpr std::size_t kSlabNodes = 256;

  TimerWheel() = default;
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Schedules `action` at absolute time `at` (>= 0). O(1) amortized.
  /// The order key is an internal monotonic sequence (locus rank 0), so
  /// plain inserts keep the historical FIFO same-tick semantics.
  EventId insert(SimTime at, EventAction action);

  /// Schedules with an explicit order key and execution locus. Same-tick
  /// events run in ascending key order; `locus` is reported back by
  /// pop_until so the simulator can attribute follow-on scheduling to the
  /// host whose event is executing.
  EventId insert_keyed(SimTime at, OrderKey key, std::uint32_t locus,
                       EventAction action);

  /// Removes a pending event. Returns false for stale/unknown ids.
  /// Wheel-resident events are unlinked and recycled immediately;
  /// overflow-resident events are marked dead and reclaimed by amortized
  /// heap compaction (the heap is never more than ~half dead).
  bool cancel(EventId id);

  /// Earliest pending event time. Advances the internal cursor (cascades
  /// far buckets down) but never past the earliest event, and never
  /// observable from outside. Returns false when no events are pending.
  bool peek(SimTime* at);

  /// Pops the earliest pending event if its time is <= `limit`; same-time
  /// events pop in ascending order-key. Returns false when idle or the next
  /// event is later than `limit`.
  bool pop_until(SimTime limit, SimTime* at, EventAction* action);

  /// As above, additionally reporting the event's execution locus.
  bool pop_until(SimTime limit, SimTime* at, std::uint32_t* locus,
                 EventAction* action);

  /// Live (scheduled, not cancelled, not run) event count. O(1).
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Overflow heap entries currently resident, dead entries included —
  /// tests pin that this stays within a small factor of the live count
  /// under heavy schedule/cancel churn.
  [[nodiscard]] std::size_t overflow_resident() const {
    return overflow_.size();
  }

  /// Total pool capacity in nodes (never shrinks; bounded by the high-water
  /// mark of concurrently pending events).
  [[nodiscard]] std::size_t node_capacity() const {
    return slabs_.size() * kSlabNodes;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct EventNode {
    std::int64_t at = 0;   // absolute expiry, ns
    OrderKey key = 0;      // same-tick tie-break (ascending)
    EventNode* prev = nullptr;
    EventNode* next = nullptr;
    std::uint32_t index = 0;  // own slot in the pool
    std::uint32_t gen = 1;    // bumped on every free/invalidate
    std::uint8_t state = 0;   // State
    std::uint8_t level = 0;   // wheel level while state == kInWheel
    std::uint32_t locus = 0;  // execution locus (host rank; 0 = harness)
    EventAction action;
  };
  enum State : std::uint8_t {
    kFree = 0,
    kInWheel,
    kInOverflow,
    kOverflowDead,
  };
  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  struct Slab {
    EventNode nodes[kSlabNodes];
  };
  struct OverflowEntry {
    std::int64_t at;
    OrderKey key;
    EventNode* node;
  };
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.key > b.key;
    }
  };

  static int slot_index(std::int64_t at, int level) {
    return static_cast<int>((at >> (kLevelBits * level)) &
                            (kSlotsPerLevel - 1));
  }
  [[nodiscard]] bool beyond_horizon(std::int64_t at) const {
    return ((static_cast<std::uint64_t>(at) ^
             static_cast<std::uint64_t>(wheel_now_)) >>
            (kLevelBits * kLevels)) != 0;
  }

  EventNode* alloc_node();
  void free_node(EventNode* n);
  EventNode* node_at(std::uint32_t index) const;
  void append(int level, int slot, EventNode* n);
  void unlink(EventNode* n);
  /// Buckets a detached node relative to the current cursor.
  void place(EventNode* n);
  /// Moves the cursor to the start of (level, slot) and redistributes that
  /// slot's events into lower levels.
  void cascade(int level, int slot);
  /// Pulls overflow events that came within the wheel horizon.
  void pull_overflow();
  void maybe_compact_overflow();
  /// Re-buckets every wheel event against an earlier cursor.
  void rewind(std::int64_t to);

  std::int64_t wheel_now_ = 0;  // cursor; all live wheel ticks are >= this
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  Slot slots_[kLevels][kSlotsPerLevel];
  std::uint64_t bitmap_[kLevels] = {};
  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<EventNode*> freelist_;
  std::vector<OverflowEntry> overflow_;  // min-heap by (at, key)
  std::size_t overflow_dead_ = 0;
  Stats stats_;
};

}  // namespace svk::sim

// Hierarchical timer wheel — the simulator's pending-event store.
//
// Design goals, in order:
//
//  1. Bit-identical execution order. Events run in (time, order-key) order.
//     The key is a caller-supplied 64-bit value; the simulator composes it
//     as (locus rank << kLocusSeqBits | per-locus seq) so that the key is a
//     pure function of *which host* scheduled the event and *how many*
//     events that host had scheduled before, independent of how hosts
//     interleave globally. A level-0 slot holds exactly one nanosecond
//     tick, and pop_until() selects the minimum-key node within the tick.
//  2. O(1) schedule and true O(1) cancel. Events live in intrusive
//     doubly-linked slot lists; an EventId is the node's common::Slab
//     handle, so cancel resolves it in O(1), unlinks the node and recycles
//     it immediately instead of leaving a tombstone.
//  3. Zero steady-state allocation. Nodes live in a common::Slab; the
//     callable lives inline in the node (EventAction's 64-byte buffer).
//     Once the slab is warm, schedule/cancel/execute touch no allocator.
//
// Structure: kLevels wheels of 64 slots over the raw nanosecond time.
// Level k buckets events whose expiry differs from the cursor in bit
// group [6k, 6k+6). Level 0 therefore spans the cursor's current 64 ns
// window and each of its slots is a single tick. 11 levels cover 66 bits,
// so every non-negative SimTime has a level and nothing lives outside the
// wheel.
//
// Ordering invariants (why determinism survives):
//  * Same-tick events always hash to the same slot at every level, so a
//    tick's events are always together in one list; pop_until() scans that
//    (short) list for the minimum key, so insertion order never matters.
//  * A cascade drains the *lowest* occupied slot into strictly lower,
//    provably empty levels. It does not change which list a tick's events
//    end up in.
//
// The cursor moves only when a cascade starts at the first tick of the
// drained slot, and pop_until() cascades only when that tick is within its
// limit. The cursor therefore never passes the simulator's clock, and every
// schedule lands at or after it.
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "common/slab.hpp"
#include "sim/event_action.hpp"

namespace svk::sim {

/// Identifies a scheduled event for cancellation: the node's slab handle,
/// packed as (generation << 32) | index. Stale ids (already run or
/// cancelled) fail the generation check and cancel becomes a harmless
/// no-op. Never 0 (generations start at 1), so 0 can be used as a
/// "no event" sentinel.
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
  /// Behavior counters. `overflow_inserts` is always 0 (nothing lives
  /// outside the wheel); the repository benchmark still reports it.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t overflow_inserts = 0;
  };

  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 11;  // 66 bits >= every non-negative time

  TimerWheel() = default;

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Schedules `action` at absolute time `at`, which must not precede the
  /// caller's clock: the last popped time, or the limit of a pop_until that
  /// found nothing due (the simulator clamps to its clock).
  /// Same-tick events run in ascending key order; `locus` is reported back
  /// by pop_until so the simulator can attribute follow-on scheduling to
  /// the host whose event is executing. O(1) amortized.
  EventId insert_keyed(SimTime at, OrderKey key, std::uint32_t locus,
                       EventAction action);

  /// Removes a pending event and recycles its node immediately. Returns
  /// false for stale/unknown ids.
  bool cancel(EventId id);

  /// Pops the earliest pending event if its time is <= `limit`; same-time
  /// events pop in ascending order-key. Reports the event's time, execution
  /// locus and action. Returns false when idle or the next event is later
  /// than `limit`.
  bool pop_until(SimTime limit, SimTime* at, std::uint32_t* locus,
                 EventAction* action);

  /// Live (scheduled, not cancelled, not run) event count. O(1).
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Total node capacity (never shrinks; bounded by the high-water mark of
  /// concurrently pending events). The allocation gates assert it freezes
  /// once warm.
  [[nodiscard]] std::size_t node_capacity() const {
    return nodes_.capacity();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct EventNode {
    std::int64_t at = 0;   // absolute expiry, ns
    OrderKey key = 0;      // same-tick tie-break (ascending)
    EventNode* prev = nullptr;
    EventNode* next = nullptr;
    common::SlabHandle self;  // erases the node once found by a slot scan
    std::uint32_t locus = 0;  // execution locus (host rank; 0 = harness)
    std::uint8_t level = 0;   // wheel level of the node's slot list
    EventAction action;
  };
  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static int slot_index(std::int64_t at, int level) {
    return static_cast<int>((at >> (kLevelBits * level)) &
                            (kSlotsPerLevel - 1));
  }

  void append(int level, int slot, EventNode* n);
  void unlink(EventNode* n);
  /// Buckets a detached node relative to the current cursor.
  void place(EventNode* n);
  /// Moves the cursor to `start`, the first tick of (level, slot), and
  /// redistributes that slot's events into lower levels.
  void cascade(int level, int slot, std::int64_t start);

  std::int64_t cursor_ = 0;  // all live ticks are >= this; low 6 bits are 0
  Slot slots_[kLevels][kSlotsPerLevel];
  std::uint64_t bitmap_[kLevels] = {};
  common::Slab<EventNode> nodes_;
  Stats stats_;
};

}  // namespace svk::sim

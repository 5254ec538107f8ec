// Open-addressing flat hash table keyed by precomputed 64-bit hashes.
//
// The state tables' replacement for node-based std::unordered_map. Design
// goals, in order:
//
//  1. No temporary keys. Every probe takes a hash the caller computed once
//     per incoming message (common/hash.hpp over string_views) plus an
//     equality predicate over the stored value — the table itself never
//     sees, copies, or owns key strings. Where the real key lives inside
//     the value (a slab-resident transaction's request message, a dialog's
//     id, a location entry's AOR), the slot holds just 8+sizeof(Value)
//     bytes and a full-table scan walks a contiguous array.
//  2. O(1) erase with no tombstones: linear probing with backward-shift
//     deletion, so lookup cost never degrades with churn.
//  3. Zero steady-state allocation: capacity only ever grows (power of
//     two), and a table whose live count has plateaued — the steady state
//     of a saturated server — performs none at all. `Stats::grows` is the
//     perf gate's regression counter.
//
// Correctness never rests on hash uniqueness: equal hashes fall through to
// the caller's predicate, exactly like a bucketed map. A hash of 0 marks an
// empty slot; real hashes are nudged off 0 internally.
//
// There is deliberately no iteration: slot order follows the hash values,
// and with nothing able to observe it, a key hash can change without
// changing any result. Walk the slab behind the table instead.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace svk::common {

template <typename Value>
class FlatTable {
 public:
  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    std::uint64_t grows = 0;  // rehash allocations ever made
  };

  static constexpr std::size_t kMinCapacity = 16;

  FlatTable() = default;

  /// The value stored under `hash` whose `eq(value)` holds, or nullptr.
  /// `eq` is consulted only for slots with an equal hash.
  template <typename Eq>
  [[nodiscard]] Value* find(std::uint64_t hash, Eq&& eq) {
    if (size_ == 0) return nullptr;
    const std::uint64_t h = normalize(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.hash == kEmpty) return nullptr;
      if (slot.hash == h && eq(const_cast<const Value&>(slot.value))) {
        return &slot.value;
      }
    }
  }
  template <typename Eq>
  [[nodiscard]] const Value* find(std::uint64_t hash, Eq&& eq) const {
    return const_cast<FlatTable*>(this)->find(hash, std::forward<Eq>(eq));
  }

  /// Inserts `value` under `hash`. The caller has already established the
  /// key is absent (the create-after-miss path reuses its failed probe);
  /// duplicates are therefore not checked for. Returns the stored value.
  /// References returned by find/insert are invalidated by any later
  /// insert (growth) or erase (backward shift) — take what you need before
  /// mutating again, or store indirection (a SlabHandle) as the value.
  Value& insert(std::uint64_t hash, Value value) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    ++size_;
    ++stats_.inserts;
    return place(normalize(hash), std::move(value));
  }

  /// Erases the entry under `hash` matching `eq`. Returns false when
  /// absent. Backward-shift: subsequent displaced entries are moved back,
  /// so no tombstone remains.
  template <typename Eq>
  bool erase(std::uint64_t hash, Eq&& eq) {
    if (size_ == 0) return false;
    const std::uint64_t h = normalize(hash);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    for (;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.hash == kEmpty) return false;
      if (slot.hash == h && eq(const_cast<const Value&>(slot.value))) break;
    }
    // Backward-shift deletion: pull each following cluster member whose
    // home position precedes (or is) the hole back into the hole.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      Slot& cand = slots_[j];
      if (cand.hash == kEmpty) break;
      const std::size_t home = cand.hash & mask;
      // `cand` may move back to `hole` iff its home position lies outside
      // the (cyclic) open interval (hole, j].
      const bool movable = ((j - home) & mask) >= ((j - hole) & mask);
      if (movable) {
        slots_[hole].hash = cand.hash;
        slots_[hole].value = std::move(cand.value);
        hole = j;
      }
    }
    slots_[hole].hash = kEmpty;
    slots_[hole].value = Value{};
    --size_;
    ++stats_.erases;
    return true;
  }

  void clear() {
    for (Slot& slot : slots_) {
      if (slot.hash != kEmpty) {
        slot.hash = kEmpty;
        slot.value = Value{};
      }
    }
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slot capacity (0 until first insert; then a power of two).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Pre-sizes for `n` live entries (setup-time; avoids growth churn).
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 3 < n * 4) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  struct Slot {
    std::uint64_t hash = kEmpty;
    Value value{};
  };

  [[nodiscard]] static std::uint64_t normalize(std::uint64_t hash) {
    return hash == kEmpty ? kGolden64 : hash;
  }

  Value& place(std::uint64_t h, Value&& value) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.hash == kEmpty) {
        slot.hash = h;
        slot.value = std::move(value);
        return slot.value;
      }
    }
  }

  void grow() {
    rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  }

  void rehash(std::size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    ++stats_.grows;
    for (Slot& slot : old) {
      if (slot.hash != kEmpty) place(slot.hash, std::move(slot.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace svk::common

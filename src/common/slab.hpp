// Generation-tagged slab allocator — stable-address object pool for the
// state layer.
//
// Transactions and dialogs are created and destroyed once per call leg;
// holding each in its own unique_ptr made the state tables the last
// allocation-heavy layer of the hot loop (PR 4 pooled events and messages).
// A Slab instead places objects in fixed-size chunks with a freelist:
// steady-state create/erase touches no allocator, addresses are stable for
// an object's whole lifetime (chunks never move), and every slot carries a
// generation counter so a Handle held across erase-and-reuse — the
// schedule-removal-then-recreate pattern — can be detected as stale instead
// of resolving to the wrong object. The timer wheel (sim/timer_wheel.hpp)
// keeps its event nodes in one too; its EventId is the packed handle.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace svk::common {

/// Identifies one live slab object: slot index plus the slot's generation
/// at allocation time. A default-constructed handle is null (never valid:
/// generations start at 1).
struct SlabHandle {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  [[nodiscard]] bool null() const { return generation == 0; }
  friend bool operator==(const SlabHandle&, const SlabHandle&) = default;
};

template <typename T>
class Slab {
 public:
  static constexpr std::size_t kChunkSlots = 256;

  /// Allocation counters; `chunk_allocs` is the number of chunk mallocs
  /// ever made — the perf gate divides lifetime emplaces by it, and the
  /// steady-state microbench asserts it stops moving once warm.
  struct Stats {
    std::uint64_t emplaced = 0;
    std::uint64_t erased = 0;
    std::uint64_t chunk_allocs = 0;
    std::uint64_t freelist_reuses = 0;
  };

  Slab() = default;
  ~Slab() { clear(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Constructs a T in a free slot. O(1); allocates only when every slot of
  /// every chunk is occupied. The object's address is stable until erase.
  template <typename... Args>
  [[nodiscard]] SlabHandle emplace(Args&&... args) {
    if (freelist_.empty()) grow();
    const std::uint32_t index = freelist_.back();
    freelist_.pop_back();
    Slot& slot = slot_at(index);
    assert(!slot.occupied);
    ::new (static_cast<void*>(&slot.storage)) T(std::forward<Args>(args)...);
    slot.occupied = true;
    ++live_;
    ++stats_.emplaced;
    if (slot.generation > 1) ++stats_.freelist_reuses;
    return SlabHandle{index, slot.generation};
  }

  /// The object behind `h`, or nullptr when the handle is stale (slot since
  /// erased, possibly reused by a different object) or null.
  [[nodiscard]] T* get(SlabHandle h) {
    if (h.null() || h.index >= slot_count()) return nullptr;
    Slot& slot = slot_at(h.index);
    if (!slot.occupied || slot.generation != h.generation) return nullptr;
    return std::launder(reinterpret_cast<T*>(&slot.storage));
  }
  [[nodiscard]] const T* get(SlabHandle h) const {
    return const_cast<Slab*>(this)->get(h);
  }

  /// Destroys the object behind `h` and recycles its slot (bumping the
  /// generation so outstanding handles go stale). Stale/null handles are a
  /// harmless no-op returning false — erase can race a scheduled removal.
  bool erase(SlabHandle h) {
    if (get(h) == nullptr) return false;
    erase_live(h);
    return true;
  }

  /// erase() for a handle the caller has already resolved with get(), so
  /// the hot path checks it once.
  void erase_live(SlabHandle h) {
    Slot& slot = slot_at(h.index);
    assert(slot.occupied && slot.generation == h.generation);
    std::launder(reinterpret_cast<T*>(&slot.storage))->~T();
    slot.occupied = false;
    ++slot.generation;
    --live_;
    ++stats_.erased;
    freelist_.push_back(h.index);
  }

  /// Visits every live object in slot order (a fixed, deterministic order
  /// for a given history). `f(SlabHandle, T&)`. The visited object may be
  /// erased from inside `f`; erasing *other* objects mid-walk is also safe
  /// (their slots simply skip as unoccupied when reached).
  template <typename F>
  void for_each(F&& f) {
    const std::size_t n = slot_count();
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slot_at(static_cast<std::uint32_t>(i));
      if (!slot.occupied) continue;
      const SlabHandle h{static_cast<std::uint32_t>(i), slot.generation};
      f(h, *std::launder(reinterpret_cast<T*>(&slot.storage)));
    }
  }

  /// Destroys every live object (slot order); capacity is retained.
  void clear() {
    for_each([this](SlabHandle h, T&) { erase(h); });
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slot_count(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::uint32_t generation = 1;
    bool occupied = false;
  };
  struct Chunk {
    Slot slots[kChunkSlots];
  };

  [[nodiscard]] std::size_t slot_count() const {
    return chunks_.size() * kChunkSlots;
  }
  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return chunks_[index / kChunkSlots]->slots[index % kChunkSlots];
  }

  void grow() {
    const std::size_t base = slot_count();
    chunks_.push_back(std::make_unique<Chunk>());
    ++stats_.chunk_allocs;
    // Reverse order so emplace draws low indexes first (deterministic and
    // friendlier to for_each locality).
    freelist_.reserve(freelist_.size() + kChunkSlots);
    for (std::size_t i = kChunkSlots; i-- > 0;) {
      freelist_.push_back(static_cast<std::uint32_t>(base + i));
    }
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> freelist_;
  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace svk::common

// Freelist-backed allocators for shared (immutable) messages and the
// blocks they share.
//
// Message::finish() turns a built message into a shared_ptr<const Message>.
// With make_shared that is one malloc + one free per message — and the
// forward path finishes a message per hop. This allocator recycles the
// allocate_shared block (control block + Message payload, one contiguous
// allocation) through a thread-local freelist binned by size class: after
// warmup, finish() and the final MessagePtr release touch no allocator.
//
// The variable parts of a message — the call identity, the Via nodes, the
// route sets, the extension headers and the body (message.hpp) — live in
// shared, ref-counted blocks with one fixed size per kind. Each kind has
// its own thread-local block pool, so `message_pool_stats()` keeps
// counting messages, one block per finish(). A block pool grows by chunks
// of many blocks: a run whose live set keeps growing (responses held for
// Timer J) then takes one allocation per chunk, not one per block. Chunks
// stay reachable for the process lifetime, like the intern table, and a
// thread's free blocks pass to the next thread that needs them when it
// exits.
//
// Thread notes: the freelists are thread-local and never shared, so no
// locks on the hot path. A block freed on a different thread than it was
// allocated on simply joins that thread's freelist — message blocks come
// from (and, past the per-bin cap or at thread exit, return to) the global
// operator new/delete, and shared blocks from chunks no thread owns, so
// ownership is fully transferable. MessagePtrs may therefore cross threads
// freely.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svk::sip {

/// Per-thread allocation counters; the zero-allocation steady-state test
/// pins `fresh_allocs` flat while `reuses` grows.
struct MessagePoolStats {
  std::uint64_t fresh_allocs = 0;  // blocks never handed out before
  std::uint64_t reuses = 0;        // blocks served from the freelist
  std::uint64_t returns = 0;       // blocks parked back on the freelist
  std::uint64_t releases = 0;      // blocks given back to operator delete
  /// Bytes handed out minus bytes taken back on this thread. Negative
  /// when this thread frees blocks another thread allocated.
  std::int64_t bytes_in_use = 0;
};

/// What a pooled block holds. kMessage is the finish() block; the others
/// are the shared parts of a message (message.hpp).
enum class PoolKind { kMessage, kIdentity, kVia, kRoutes, kHeaders, kBody };
inline constexpr int kPoolKinds = 6;

/// This thread's counters for one kind of block.
const MessagePoolStats& pool_stats(PoolKind kind);
/// This thread's message-block counters: pool_stats(PoolKind::kMessage).
const MessagePoolStats& message_pool_stats();
/// Pooled bytes this thread holds over every kind (sum of bytes_in_use).
std::int64_t pooled_bytes_in_use();

namespace detail {
void* pool_allocate(std::size_t bytes, PoolKind kind = PoolKind::kMessage);
void pool_deallocate(void* p, std::size_t bytes,
                     PoolKind kind = PoolKind::kMessage) noexcept;
}  // namespace detail

/// Minimal std allocator over the thread-local message pool. Stateless;
/// all instances are interchangeable.
template <typename T>
struct MessagePoolAllocator {
  using value_type = T;

  MessagePoolAllocator() noexcept = default;
  template <typename U>
  constexpr MessagePoolAllocator(const MessagePoolAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(detail::pool_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::pool_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend constexpr bool operator==(const MessagePoolAllocator&,
                                   const MessagePoolAllocator<U>&) noexcept {
    return true;
  }
};

}  // namespace svk::sip

// Pooled, ref-counted blocks: every shared (immutable) message and every
// part it shares.
//
// A finished message (Message::finish(), message.hpp) and each of its
// variable parts — the dialog and target blocks, the Via nodes, the route
// sets, the extension headers and the body — live in fixed-size blocks,
// one size per PoolKind, each holding its value and an atomic reference
// count. Each kind has its own thread-local block pool, so
// `message_pool_stats()` counts messages, one block per finish(). A block
// pool grows by chunks of many blocks: a run whose live set keeps growing
// (responses held for Timer J) then takes one allocation per chunk, not one
// per block, and a warm forward path creates and releases messages without
// the allocator.
// Chunks stay reachable for the process lifetime, like the intern table,
// and a thread's free blocks pass to the next thread that needs them when
// it exits.
//
// Thread notes: the freelists are thread-local and never shared, so no
// locks on the hot path. A block freed on a different thread than it was
// allocated on simply joins that thread's freelist; chunks belong to no
// thread, so ownership is fully transferable, and the last release of a
// count (on any thread) frees the block. MessagePtrs may therefore cross
// threads freely. A block released after its thread's pools were handed
// over at exit goes straight to the process-wide spares.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace svk::sip {

/// Per-thread allocation counters; the zero-allocation steady-state test
/// pins `fresh_allocs` flat while `reuses` grows.
struct MessagePoolStats {
  std::uint64_t fresh_allocs = 0;  // blocks never handed out before
  std::uint64_t reuses = 0;        // blocks served from the freelist
  std::uint64_t returns = 0;       // blocks parked back on the freelist
  /// Bytes handed out minus bytes taken back on this thread. Negative
  /// when this thread frees blocks another thread allocated.
  std::int64_t bytes_in_use = 0;
};

/// What a pooled block holds. kMessage is the finish() block; the others
/// are the shared parts of a message (message.hpp): kIdentity its dialog
/// block (From, To, Call-ID, CSeq), kTarget its target block (request-URI,
/// Contact, body handle).
enum class PoolKind {
  kMessage, kIdentity, kTarget, kVia, kRoutes, kHeaders, kBody
};
inline constexpr int kPoolKinds = 7;

/// This thread's counters for one kind of block.
const MessagePoolStats& pool_stats(PoolKind kind);
/// This thread's message-block counters: pool_stats(PoolKind::kMessage).
const MessagePoolStats& message_pool_stats();
/// Pooled bytes this thread holds over every kind (sum of bytes_in_use).
std::int64_t pooled_bytes_in_use();

namespace detail {

void* pool_allocate(std::size_t bytes, PoolKind kind);
void pool_deallocate(void* p, std::size_t bytes, PoolKind kind) noexcept;

/// A nullable, intrusively counted handle over one pooled `Node` of kind
/// `Kind`. `Node` is an aggregate with a member
/// `std::atomic<std::uint32_t> refs{1}`: make() builds it holding one
/// reference, a copy retains it and the last release destroys it and
/// returns its block to this thread's pool. The count is atomic so that a
/// handle may be released on another thread than the one that copied it.
template <typename Node, PoolKind Kind>
class PoolRef {
 public:
  PoolRef() noexcept = default;
  PoolRef(const PoolRef& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PoolRef(PoolRef&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  PoolRef& operator=(PoolRef other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~PoolRef() {
    if (node_ != nullptr &&
        node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      node_->~Node();
      pool_deallocate(node_, sizeof(Node), Kind);
    }
  }

  /// A new node built from `args`, held once.
  template <typename... Args>
  [[nodiscard]] static PoolRef make(Args&&... args) {
    void* block = pool_allocate(sizeof(Node), Kind);
    return PoolRef(::new (block) Node{std::forward<Args>(args)...});
  }

  [[nodiscard]] Node* get() const noexcept { return node_; }
  Node* operator->() const noexcept { return node_; }
  explicit operator bool() const noexcept { return node_ != nullptr; }
  /// Whether another handle holds this node too; precondition: non-null.
  [[nodiscard]] bool shared() const noexcept {
    return node_->refs.load(std::memory_order_acquire) != 1;
  }

  friend bool operator==(const PoolRef&, const PoolRef&) = default;

 private:
  explicit PoolRef(Node* node) noexcept : node_(node) {}

  Node* node_ = nullptr;
};

}  // namespace detail
}  // namespace svk::sip

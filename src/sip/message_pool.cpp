#include "sip/message_pool.hpp"

#include <cassert>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace svk::sip {
namespace {

// Blocks per chunk of a block pool.
constexpr std::size_t kChunkBlocks = 128;

struct FreeBlock {
  FreeBlock* next;
};

/// One kind's fixed-size blocks on one thread: a freelist, then the unused
/// tail of the newest chunk. Trivially destructible, so it stays usable
/// while the thread's other thread-locals are being destroyed.
struct BlockPool {
  std::size_t bytes = 0;
  FreeBlock* free = nullptr;
  char* fresh = nullptr;  // next never-used block of the newest chunk
  char* fresh_end = nullptr;
  MessagePoolStats stats;
};

thread_local BlockPool block_pools[kPoolKinds];

/// Process-wide: every chunk (kept reachable for the process lifetime) and
/// the free blocks of exited threads, per kind.
struct Spares {
  std::mutex mutex;
  std::vector<void*> chunks;
  FreeBlock* free[kPoolKinds] = {};
};

Spares& spares() {
  static Spares* s = new Spares();  // leaked: process lifetime
  return *s;
}

/// Set once this thread's pools were handed to spares() at its exit.
thread_local bool handed_over = false;

/// Hands a thread's free and never-used blocks to spares() when it exits.
struct ThreadExit {
  ThreadExit() = default;
  ThreadExit(const ThreadExit&) = delete;
  ThreadExit& operator=(const ThreadExit&) = delete;
  ~ThreadExit() {
    Spares& s = spares();
    std::lock_guard lock(s.mutex);
    for (int kind = 0; kind < kPoolKinds; ++kind) {
      BlockPool& pool = block_pools[kind];
      for (; pool.fresh != pool.fresh_end; pool.fresh += pool.bytes) {
        auto* block = ::new (pool.fresh) FreeBlock{pool.free};
        pool.free = block;
      }
      while (pool.free != nullptr) {
        FreeBlock* block = pool.free;
        pool.free = block->next;
        block->next = s.free[kind];
        s.free[kind] = block;
      }
    }
    handed_over = true;
  }
};

/// Makes sure this thread hands its pools over at exit; false once it has.
bool register_thread_exit() {
  thread_local ThreadExit hook;
  (void)hook;
  return !handed_over;
}

/// Refills an empty pool from the spares of exited threads, else with a
/// new chunk.
void refill(BlockPool& pool, int kind) {
  register_thread_exit();
  Spares& s = spares();
  std::lock_guard lock(s.mutex);
  if (s.free[kind] != nullptr) {
    pool.free = std::exchange(s.free[kind], nullptr);
    return;
  }
  char* chunk = static_cast<char*>(::operator new(kChunkBlocks * pool.bytes));
  s.chunks.push_back(chunk);
  pool.fresh = chunk;
  pool.fresh_end = chunk + kChunkBlocks * pool.bytes;
}

}  // namespace

const MessagePoolStats& pool_stats(PoolKind kind) {
  return block_pools[static_cast<int>(kind)].stats;
}

const MessagePoolStats& message_pool_stats() {
  return pool_stats(PoolKind::kMessage);
}

std::int64_t pooled_bytes_in_use() {
  std::int64_t bytes = 0;
  for (const BlockPool& pool : block_pools) bytes += pool.stats.bytes_in_use;
  return bytes;
}

namespace detail {

void* pool_allocate(std::size_t bytes, PoolKind kind) {
  BlockPool& pool = block_pools[static_cast<int>(kind)];
  if (pool.bytes == 0) pool.bytes = bytes;
  assert(pool.bytes == bytes && "one block size per pool kind");
  pool.stats.bytes_in_use += static_cast<std::int64_t>(bytes);
  if (pool.free == nullptr && pool.fresh == pool.fresh_end) {
    refill(pool, static_cast<int>(kind));
  }
  if (pool.free != nullptr) {
    FreeBlock* block = pool.free;
    pool.free = block->next;
    ++pool.stats.reuses;
    return block;
  }
  void* p = pool.fresh;
  pool.fresh += bytes;
  ++pool.stats.fresh_allocs;
  return p;
}

void pool_deallocate(void* p, std::size_t bytes, PoolKind kind) noexcept {
  BlockPool& pool = block_pools[static_cast<int>(kind)];
  pool.stats.bytes_in_use -= static_cast<std::int64_t>(bytes);
  ++pool.stats.returns;
  if (pool.free == nullptr && !register_thread_exit()) {
    // A thread-local destroyed after the hand-over held the last reference.
    Spares& s = spares();
    std::lock_guard lock(s.mutex);
    FreeBlock*& spare = s.free[static_cast<int>(kind)];
    spare = ::new (p) FreeBlock{spare};
    return;
  }
  pool.free = ::new (p) FreeBlock{pool.free};
}

}  // namespace detail
}  // namespace svk::sip

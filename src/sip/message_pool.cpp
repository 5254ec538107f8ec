#include "sip/message_pool.hpp"

#include <cassert>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace svk::sip {
namespace {

// allocate_shared<const Message> produces exactly one size class per
// libstdc++ version; a second class appears if anything else ever uses the
// allocator. Linear scan over this many bins is cheaper than any map.
constexpr std::size_t kMaxBins = 8;
// Per-bin freelist cap: bounds idle pool memory at kMaxParked blocks per
// size class per thread while still absorbing the forward path's
// allocate/release churn.
constexpr std::size_t kMaxParked = 4096;
// Blocks per chunk of a shared-block pool.
constexpr std::size_t kChunkBlocks = 128;

struct Bin {
  std::size_t bytes = 0;
  std::vector<void*> free;
};

struct MessagePool {
  Bin bins[kMaxBins];
  MessagePoolStats stats;

  ~MessagePool() {
    for (Bin& bin : bins) {
      for (void* p : bin.free) ::operator delete(p);
    }
  }

  Bin* find(std::size_t bytes) {
    for (Bin& bin : bins) {
      if (bin.bytes == bytes) return &bin;
      if (bin.bytes == 0) {
        bin.bytes = bytes;
        return &bin;
      }
    }
    return nullptr;  // unusual size mix; fall through to the heap
  }
};

MessagePool& message_pool() {
  thread_local MessagePool pool;
  return pool;
}

struct FreeBlock {
  FreeBlock* next;
};

/// One kind's fixed-size blocks on one thread: a freelist, then the unused
/// tail of the newest chunk. Trivially destructible, so a block released
/// while the thread's other thread-locals are being destroyed still has a
/// list to join.
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
  }
};

void register_thread_exit() {
  thread_local ThreadExit hook;
  (void)hook;
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

void* block_allocate(std::size_t bytes, int kind) {
  BlockPool& pool = block_pools[kind];
  if (pool.bytes == 0) pool.bytes = bytes;
  assert(pool.bytes == bytes && "one block size per pool kind");
  pool.stats.bytes_in_use += static_cast<std::int64_t>(bytes);
  if (pool.free == nullptr && pool.fresh == pool.fresh_end) {
    refill(pool, kind);
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

void block_deallocate(void* p, std::size_t bytes, int kind) noexcept {
  BlockPool& pool = block_pools[kind];
  if (pool.free == nullptr) register_thread_exit();
  pool.free = ::new (p) FreeBlock{pool.free};
  pool.stats.bytes_in_use -= static_cast<std::int64_t>(bytes);
  ++pool.stats.returns;
}

}  // namespace

const MessagePoolStats& pool_stats(PoolKind kind) {
  if (kind == PoolKind::kMessage) return message_pool().stats;
  return block_pools[static_cast<int>(kind)].stats;
}

const MessagePoolStats& message_pool_stats() {
  return pool_stats(PoolKind::kMessage);
}

std::int64_t pooled_bytes_in_use() {
  std::int64_t bytes = 0;
  for (int kind = 0; kind < kPoolKinds; ++kind) {
    bytes += pool_stats(static_cast<PoolKind>(kind)).bytes_in_use;
  }
  return bytes;
}

namespace detail {

void* pool_allocate(std::size_t bytes, PoolKind kind) {
  if (kind != PoolKind::kMessage) {
    return block_allocate(bytes, static_cast<int>(kind));
  }
  MessagePool& pool = message_pool();
  pool.stats.bytes_in_use += static_cast<std::int64_t>(bytes);
  Bin* bin = pool.find(bytes);
  if (bin != nullptr && !bin->free.empty()) {
    void* p = bin->free.back();
    bin->free.pop_back();
    ++pool.stats.reuses;
    return p;
  }
  ++pool.stats.fresh_allocs;
  return ::operator new(bytes);
}

void pool_deallocate(void* p, std::size_t bytes, PoolKind kind) noexcept {
  if (kind != PoolKind::kMessage) {
    block_deallocate(p, bytes, static_cast<int>(kind));
    return;
  }
  MessagePool& pool = message_pool();
  pool.stats.bytes_in_use -= static_cast<std::int64_t>(bytes);
  Bin* bin = pool.find(bytes);
  if (bin != nullptr && bin->free.size() < kMaxParked) {
    bin->free.push_back(p);
    ++pool.stats.returns;
    return;
  }
  ++pool.stats.releases;
  ::operator delete(p);
}

}  // namespace detail
}  // namespace svk::sip

// Per-call state of a user agent, indexed by Call-ID.
//
// The UAC's open calls and the UAS's ringing and 200-retransmitting calls
// each live in a common::Slab with one common::FlatTable<SlabHandle>
// Call-ID index: the layout of the proxy's INVITE relays and of the
// transaction tables (DESIGN.md §12). An entry retains the message that
// carries its Call-ID, and the index compares against that message, so no
// Call-ID is copied into the table. Timers and transaction callbacks
// capture an entry's 8-byte SlabHandle; once the entry is erased the
// handle is stale and resolves to nullptr, so a late response or timer is
// a no-op, as a map miss was.
#pragma once

#include <cassert>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/flat_table.hpp"
#include "common/hash.hpp"
#include "common/slab.hpp"
#include "sip/message.hpp"

namespace svk::workload {

/// Allocation events ever made by a CallTable's slab and index; both stop
/// moving once the table has seen its peak population.
struct CallTableStats {
  std::uint64_t chunk_allocs = 0;
  std::uint64_t grows = 0;

  friend CallTableStats operator+(CallTableStats a, CallTableStats b) {
    return {a.chunk_allocs + b.chunk_allocs, a.grows + b.grows};
  }
};

/// `Message` names the member of T that retains the message whose Call-ID
/// keys the entry; it must stay set while the entry is in the table.
template <typename T, sip::MessagePtr T::*Message>
class CallTable {
 public:

  /// Inserts an entry whose Call-ID is not in the table yet.
  common::SlabHandle insert(T value) {
    const std::uint64_t hash = common::key_hash(call_id_of(value));
    assert(find(call_id_of(value)).null());
    const common::SlabHandle handle = slab_.emplace(std::move(value));
    index_.insert(hash, handle);
    return handle;
  }

  /// The entry behind `handle`, or nullptr once it has been erased.
  [[nodiscard]] T* get(common::SlabHandle handle) {
    return slab_.get(handle);
  }

  /// The entry for `call_id`, or a null handle.
  [[nodiscard]] common::SlabHandle find(std::string_view call_id) const {
    const common::SlabHandle* found = index_.find(
        common::key_hash(call_id), [&](const common::SlabHandle& handle) {
          return call_id_of(*slab_.get(handle)) == call_id;
        });
    return found != nullptr ? *found : common::SlabHandle{};
  }

  /// Removes the live entry behind `handle` and returns it.
  T take(common::SlabHandle handle) {
    T value = std::move(*unindex(handle));
    slab_.erase_live(handle);
    return value;
  }

  /// Removes the entry behind `handle`; a stale handle is a no-op.
  void erase(common::SlabHandle handle) {
    if (slab_.get(handle) == nullptr) return;
    (void)unindex(handle);
    slab_.erase_live(handle);
  }

  /// Visits every entry as `f(T&)`, in slot order.
  template <typename F>
  void for_each(F&& f) {
    slab_.for_each([&](common::SlabHandle, T& entry) { f(entry); });
  }

  [[nodiscard]] std::size_t size() const { return slab_.size(); }
  [[nodiscard]] CallTableStats stats() const {
    return {slab_.stats().chunk_allocs, index_.stats().grows};
  }

 private:
  [[nodiscard]] static std::string_view call_id_of(const T& entry) {
    return (entry.*Message)->call_id();
  }

  /// Drops the live entry behind `handle` from the index; returns it.
  T* unindex(common::SlabHandle handle) {
    T* entry = slab_.get(handle);
    assert(entry != nullptr);
    index_.erase(common::key_hash(call_id_of(*entry)),
                 [&](const common::SlabHandle& h) { return h == handle; });
    return entry;
  }

  common::Slab<T> slab_;
  common::FlatTable<common::SlabHandle> index_;
};

}  // namespace svk::workload

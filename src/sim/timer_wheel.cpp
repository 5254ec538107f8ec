#include "sim/timer_wheel.hpp"

#include <bit>
#include <cassert>

namespace svk::sim {

void TimerWheel::append(int level, int slot, EventNode* n) {
  Slot& sl = slots_[level][slot];
  n->prev = sl.tail;
  n->next = nullptr;
  if (sl.tail != nullptr) {
    sl.tail->next = n;
  } else {
    sl.head = n;
  }
  sl.tail = n;
  bitmap_[level] |= 1ull << slot;
  n->level = static_cast<std::uint8_t>(level);
}

void TimerWheel::unlink(EventNode* n) {
  const int slot = slot_index(n->at, n->level);
  Slot& sl = slots_[n->level][slot];
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    sl.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    sl.tail = n->prev;
  }
  if (sl.head == nullptr) bitmap_[n->level] &= ~(1ull << slot);
}

void TimerWheel::place(EventNode* n) {
  const std::uint64_t diff = static_cast<std::uint64_t>(n->at) ^
                             static_cast<std::uint64_t>(cursor_);
  // Both times are non-negative, so bit 63 of diff is clear and the level
  // is at most 62 / 6 = 10.
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  append(level, slot_index(n->at, level), n);
}

void TimerWheel::cascade(int level, int slot, std::int64_t start) {
  assert(start >= cursor_);
  cursor_ = start;
  EventNode* n = slots_[level][slot].head;
  slots_[level][slot] = Slot{};
  bitmap_[level] &= ~(1ull << slot);
  while (n != nullptr) {
    EventNode* next = n->next;
    place(n);  // re-buckets at a strictly lower level, preserving order
    n = next;
  }
}

EventId TimerWheel::insert_keyed(SimTime at, OrderKey key, std::uint32_t locus,
                                 EventAction action) {
  assert(at.ns() >= cursor_);
  const common::SlabHandle h = nodes_.emplace();
  EventNode* n = nodes_.get(h);
  n->at = at.ns();
  n->key = key;
  n->self = h;
  n->locus = locus;
  n->action = std::move(action);
  place(n);
  ++stats_.scheduled;
  return (static_cast<EventId>(h.generation) << 32) | h.index;
}

bool TimerWheel::cancel(EventId id) {
  const common::SlabHandle h{static_cast<std::uint32_t>(id),
                             static_cast<std::uint32_t>(id >> 32)};
  EventNode* n = nodes_.get(h);
  if (n == nullptr) return false;
  unlink(n);
  nodes_.erase_live(h);
  ++stats_.cancelled;
  return true;
}

bool TimerWheel::pop_until(SimTime limit, SimTime* at, std::uint32_t* locus,
                           EventAction* action) {
  while (bitmap_[0] == 0) {
    int level = 1;
    while (level < kLevels && bitmap_[level] == 0) ++level;
    if (level == kLevels) return false;
    // The lowest occupied slot holds the earliest events, none of them
    // before the slot's first tick. Stop short of cascading when that tick
    // is past the limit, so the cursor never passes the caller's clock.
    const int slot = std::countr_zero(bitmap_[level]);
    const int shift = kLevelBits * level;
    // The span of a whole level wraps to 0 at the top level, whose cycle
    // is all of time; unsigned arithmetic keeps that well defined.
    const std::uint64_t span = std::uint64_t{kSlotsPerLevel} << shift;
    const std::int64_t start = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(cursor_) & ~(span - 1)) |
        (static_cast<std::uint64_t>(slot) << shift));
    if (start > limit.ns()) return false;
    cascade(level, slot, start);
  }
  const int slot = std::countr_zero(bitmap_[0]);
  if (cursor_ + slot > limit.ns()) return false;
  // A level-0 slot is a single nanosecond tick; the list is short (usually
  // one node), so a linear min-key scan beats keeping the list sorted.
  EventNode* n = slots_[0][slot].head;
  for (EventNode* c = n->next; c != nullptr; c = c->next) {
    if (c->key < n->key) n = c;
  }
  unlink(n);
  *at = SimTime::nanos(n->at);
  *locus = n->locus;
  *action = std::move(n->action);
  nodes_.erase_live(n->self);
  ++stats_.executed;
  return true;
}

}  // namespace svk::sim

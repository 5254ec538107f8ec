// Discrete-event simulator.
//
// A single-threaded event loop over virtual time. Events scheduled for the
// same instant run in ascending (locus rank, per-locus sequence) order — a
// tie-break that is a pure function of which host scheduled the event and
// that host's own scheduling history, never of how hosts interleave. That
// makes every run bit-reproducible for a given seed and schedule.
//
// The "ambient locus" is the rank (host address) charged for scheduling:
// while an event executes it is that event's locus, so follow-on schedules
// inherit the host's identity; outside event execution it is whatever the
// harness establishes with LocusScope (rank 0 = harness/setup).
//
// The pending-event store is a hierarchical timer wheel with one
// common::Slab node per event (see timer_wheel.hpp): schedule and cancel are
// O(1), cancellation always removes the event eagerly (no tombstones), and
// steady-state scheduling performs no heap allocation — the callable lives
// inline in the node (EventAction small-buffer storage).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.hpp"
#include "obs/sinks.hpp"
#include "sim/event_action.hpp"
#include "sim/timer_wheel.hpp"

namespace svk::sim {

/// The event loop. Not thread-safe by design (CP: the simulation is
/// deterministic and single-threaded; parallelism belongs outside the clock).
class Simulator {
 public:
  using Action = EventAction;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` after now, executing under the
  /// current ambient locus. Negative delays clamp to zero (run
  /// "immediately", after already-queued lower-key same-time events).
  EventId schedule(SimTime delay, Action action);

  /// Schedules `action` at an absolute time (clamped to now).
  EventId schedule_at(SimTime when, Action action);

  /// Schedules `action` at an absolute time (clamped to now) to execute
  /// under locus `locus` (e.g. a datagram delivery charged to the receiving
  /// host). The order key is still allocated from the *ambient* locus — the
  /// scheduler's identity decides same-tick order; the execution locus
  /// decides who the event "is" while it runs.
  EventId schedule_at_for(std::uint32_t locus, SimTime when, Action action);

  /// Allocates the order key a schedule made now would take, without
  /// scheduling anything. A component that queues its own fixed-delay
  /// items (the transaction layer's linger records) reserves each item's
  /// key when the item is created and later puts only its queue head in the
  /// wheel with schedule_reserved, so its items pop exactly where direct
  /// schedules would have.
  [[nodiscard]] OrderKey reserve_order_key() { return allocate_order_key(); }

  /// Schedules `action` at absolute time `when` (not before now) under a
  /// key from reserve_order_key(). It executes under the key's locus, as a
  /// schedule made at reservation time would have.
  EventId schedule_reserved(SimTime when, OrderKey key, Action action);

  /// The locus new schedules are charged to. 0 outside event execution
  /// unless a LocusScope is active; the executing event's locus inside.
  [[nodiscard]] std::uint32_t ambient_locus() const { return ambient_locus_; }
  void set_ambient_locus(std::uint32_t locus) { ambient_locus_ = locus; }

  /// Cancels `id` (tolerating stale/zero ids) and schedules `action` after
  /// `delay` in one call — the timer-refresh idiom (RFC 3261 timer A
  /// doubling, timer C re-arm per provisional). Returns the new id.
  EventId reschedule(EventId id, SimTime delay, Action action);

  /// Cancels a pending event. Cancelling an already-run, already-cancelled
  /// or unknown id is a harmless no-op (it must not disturb the pending
  /// accounting — ids are routinely cancelled from inside their own action,
  /// e.g. PeriodicTimer::stop() within its own tick). Live events are
  /// removed eagerly: no tombstone outlives this call.
  void cancel(EventId id);

  /// Runs events until the queue is empty or `until` is passed. The clock
  /// is left at the last executed event (or `until` if given and reached).
  void run_until(SimTime until);

  /// Runs until the queue drains completely.
  void run();

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Number of events executed so far (diagnostics).
  [[nodiscard]] std::uint64_t executed_count() const {
    return wheel_.stats().executed;
  }

  /// Pending (non-cancelled) event count. O(1), maintained by the wheel.
  [[nodiscard]] std::size_t pending_count() const { return wheel_.size(); }

  /// Event-store counters (the repository benchmark reads these).
  [[nodiscard]] const TimerWheel::Stats& event_stats() const {
    return wheel_.stats();
  }
  /// The wheel itself, for memory-behavior assertions (node capacity).
  [[nodiscard]] const TimerWheel& event_store() const { return wheel_; }

  /// Installs observability sinks. The returned struct from obs() has a
  /// stable address for the simulator's lifetime, so components may cache
  /// `&sim.obs()` and observe late enablement. Purely passive: attaching
  /// sinks never changes simulated results.
  void set_obs(const obs::Sinks& sinks) { obs_ = sinks; }
  [[nodiscard]] const obs::Sinks& obs() const { return obs_; }

 private:
  /// Executes the next event if due at or before `limit`.
  bool step_until(SimTime limit);
  /// Allocates the next order key of the ambient locus.
  OrderKey allocate_order_key();

  SimTime now_;
  std::uint32_t ambient_locus_{0};
  /// Per-locus sequence counters, indexed by rank (grown on demand).
  std::vector<std::uint64_t> locus_seq_;
  obs::Sinks obs_;
  TimerWheel wheel_;
};

/// RAII ambient-locus override: the TestBed wraps component construction
/// and load start in one of these so setup-time events are charged to the
/// owning host rather than the harness (rank 0), and so sort by that host's
/// rank at equal times.
class LocusScope {
 public:
  LocusScope(Simulator& sim, std::uint32_t locus)
      : sim_(sim), prev_(sim.ambient_locus()) {
    sim_.set_ambient_locus(locus);
  }
  ~LocusScope() { sim_.set_ambient_locus(prev_); }

  LocusScope(const LocusScope&) = delete;
  LocusScope& operator=(const LocusScope&) = delete;

 private:
  Simulator& sim_;
  std::uint32_t prev_;
};

/// A repeating timer bound to a simulator. Ticks every `period` until
/// stopped or destroyed (RAII; R.1).
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimTime period, std::function<void()> on_tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm();

  Simulator& sim_;
  SimTime period_;
  std::function<void()> on_tick_;
  EventId pending_{0};
  bool running_{false};
};

}  // namespace svk::sim

#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace svk::sim {

OrderKey Simulator::allocate_order_key() {
  if (ambient_locus_ >= locus_seq_.size()) {
    locus_seq_.resize(static_cast<std::size_t>(ambient_locus_) + 1, 0);
  }
  return make_order_key(ambient_locus_, ++locus_seq_[ambient_locus_]);
}

EventId Simulator::schedule(SimTime delay, Action action) {
  if (delay < SimTime{}) delay = SimTime{};
  return schedule_at(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(SimTime when, Action action) {
  return schedule_at_for(ambient_locus_, when, std::move(action));
}

EventId Simulator::schedule_at_for(std::uint32_t locus, SimTime when,
                                   Action action) {
  if (when < now_) when = now_;
  return wheel_.insert_keyed(when, allocate_order_key(), locus,
                             std::move(action));
}

EventId Simulator::schedule_reserved(SimTime when, OrderKey key,
                                     Action action) {
  assert(when >= now_);
  return wheel_.insert_keyed(when, key, order_key_locus(key),
                             std::move(action));
}

EventId Simulator::reschedule(EventId id, SimTime delay, Action action) {
  wheel_.cancel(id);
  return schedule(delay, std::move(action));
}

void Simulator::cancel(EventId id) { wheel_.cancel(id); }

bool Simulator::step_until(SimTime limit) {
  SimTime at;
  std::uint32_t locus;
  EventAction action;
  if (!wheel_.pop_until(limit, &at, &locus, &action)) return false;
  now_ = at;
  // Event-queue depth sampled every 1024 events: cheap enough for the hot
  // loop, dense enough to see a runaway schedule on the harness track.
  if (obs_.tracer != nullptr && (executed_count() & 1023u) == 0) {
    obs_.tracer->counter("pending_events", now_, 0, "events",
                         static_cast<double>(wheel_.size()));
  }
  // The executing event's locus is ambient for its duration, so follow-on
  // schedules carry the host's identity; the harness locus is restored
  // afterwards (events can interleave with LocusScope-guarded setup).
  const std::uint32_t prev = ambient_locus_;
  ambient_locus_ = locus;
  action();
  ambient_locus_ = prev;
  return true;
}

bool Simulator::step() { return step_until(SimTime::max()); }

void Simulator::run_until(SimTime until) {
  while (step_until(until)) {
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  while (step()) {
  }
}

PeriodicTimer::PeriodicTimer(Simulator& sim, SimTime period,
                             std::function<void()> on_tick)
    : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = 0;
}

void PeriodicTimer::arm() {
  pending_ = sim_.schedule(period_, [this] {
    if (!running_) return;
    on_tick_();
    if (running_) arm();
  });
}

}  // namespace svk::sim

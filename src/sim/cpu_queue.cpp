#include "sim/cpu_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace svk::sim {

CpuQueue::CpuQueue(Simulator& sim, CpuQueueConfig config)
    : sim_(sim), config_(config) {
  assert(config_.capacity > 0.0);
}

bool CpuQueue::submit(double cost, Completion done) {
  if (backlog() > config_.max_queue_delay) {
    ++stats_.rejected;
    const obs::Sinks& obs = sim_.obs();
    if (obs.tracer != nullptr) {
      obs.tracer->instant("cpu_reject", "cpu", sim_.now(), trace_tid_,
                          "backlog_ms", backlog().to_millis());
    }
    return false;
  }
  enqueue(cost, std::move(done));
  return true;
}

void CpuQueue::submit_urgent(double cost, Completion done) {
  enqueue(cost, std::move(done));
}

void CpuQueue::enqueue(double cost, Completion done) {
  assert(cost >= 0.0);
  ++stats_.admitted;
  stats_.total_cost += cost;
  const SimTime service =
      SimTime::seconds(cost / (config_.capacity * capacity_factor_));
  const SimTime start = std::max(busy_until_, sim_.now());
  busy_until_ = start + service;
  total_service_ += service;
  const obs::Sinks& obs = sim_.obs();
  if (obs.tracer != nullptr && service > SimTime{}) {
    // One span per unit of work at its scheduled service slot: the node's
    // trace track shows CPU occupancy directly (gaps = idle time).
    obs.tracer->complete("service", "cpu", start, service, trace_tid_,
                         "cost", cost);
  }
  if (done) {
    sim_.schedule_at(busy_until_, std::move(done));
  }
}

void CpuQueue::set_capacity_factor(double factor) {
  assert(factor > 0.0);
  if (factor == capacity_factor_) return;
  const SimTime now = sim_.now();
  if (busy_until_ > now) {
    // Rescale the unserved portion of the backlog: work that needed
    // `remaining` wall time at the old speed needs remaining * old/new at
    // the new one.
    const SimTime remaining = busy_until_ - now;
    const SimTime rescaled =
        SimTime::seconds(remaining.to_seconds() * capacity_factor_ / factor);
    busy_until_ = now + rescaled;
    // busy_elapsed(t) = total_service_ - (busy_until_ - t): folding the
    // backlog delta into total_service_ keeps busy_elapsed continuous at
    // the change instant (past busy time already accrued stays accrued) and
    // integrates to the new busy_until_ going forward, so UtilizationProbe
    // windows spanning the change stay in [0, 1].
    total_service_ += rescaled - remaining;
  }
  capacity_factor_ = factor;
}

SimTime CpuQueue::backlog() const {
  const SimTime now = sim_.now();
  return busy_until_ > now ? busy_until_ - now : SimTime{};
}

SimTime CpuQueue::busy_elapsed(SimTime now) const {
  const SimTime future =
      busy_until_ > now ? busy_until_ - now : SimTime{};
  return total_service_ - future;
}

UtilizationProbe::UtilizationProbe(const CpuQueue& cpu, const Simulator& sim)
    : cpu_(cpu), sim_(sim) {
  restart();
}

void UtilizationProbe::restart() {
  start_ = sim_.now();
  busy_at_start_ = cpu_.busy_elapsed(start_);
}

double UtilizationProbe::utilization() const {
  const SimTime now = sim_.now();
  const double span = (now - start_).to_seconds();
  if (span <= 0.0) return 0.0;
  const double busy = (cpu_.busy_elapsed(now) - busy_at_start_).to_seconds();
  return std::clamp(busy / span, 0.0, 1.0);
}

}  // namespace svk::sim

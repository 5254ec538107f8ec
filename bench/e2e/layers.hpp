// Per-layer accounting for bench_e2e, taken from outside the simulator.
//
// Counts are exact: they are read from each layer's public stats accessors
// (summed over a bed's proxies/UAs, plus this thread's message pool). Host
// costs are calibrated: a loop calls the layer's public functions in
// isolation, shaped like the measured run (populations from the run's
// peak occupancy, message shapes from the workload), and reports host ns
// per operation. A layer's estimated self time is count x ns.
//
// A loop whose operations schedule simulator events reports only what it
// costs beyond a bare event doing the same scheduling: event_ns prices
// every event of the run once, in sim.self_ms.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sim_time.hpp"
#include "workload/testbed.hpp"

namespace svk::e2e {

/// Monotone counters of one bed. Fields are named for the layer that owns
/// the accessor they come from.
struct LayerCounters {
  std::uint64_t events = 0;  // simulator events executed
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t overflow_inserts = 0;
  std::uint64_t datagrams = 0;  // network sends
  std::uint64_t dropped = 0;    // every network drop cause
  std::uint64_t cpu_admitted = 0;
  std::uint64_t cpu_rejected = 0;
  double cpu_cost = 0.0;        // admitted cost units
  std::uint64_t msgs = 0;       // message-pool blocks handed out
  std::uint64_t pool_fresh = 0;  // ... of which came from operator new
  std::uint64_t txn_created = 0;
  std::uint64_t dialog_created = 0;
  std::uint64_t proxy_msgs_in = 0;
  std::uint64_t proxy_stateful = 0;
  std::uint64_t proxy_stateless = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t rejected = 0;  // 500 + 503 finals proxies sent
  std::uint64_t location_queries = 0;
  /// Requests forwarded by SERvartuka-controlled proxies: every
  /// transaction-creating one went through Controller::decide. ProxyStats
  /// does not split out the ACKs, which are included.
  std::uint64_t core_routed = 0;
  std::uint64_t retransmissions = 0;  // UAC request retransmits
  std::uint64_t calls_attempted = 0;
  std::uint64_t calls_completed = 0;

  LayerCounters& operator+=(const LayerCounters& o);
  LayerCounters& operator-=(const LayerCounters& o);
};

/// Occupancy of a bed at one instant.
struct LayerLevels {
  std::size_t pending_events = 0;
  std::size_t txn_live = 0;         // summed over proxies
  std::size_t txn_live_node = 0;    // largest single proxy
  std::size_t dialog_live = 0;
  std::size_t dialog_live_node = 0;

  /// Fieldwise maximum (peak tracking).
  void raise_to(const LayerLevels& o);
};

/// Reads `bed`'s counters. The message-pool fields are this thread's, so a
/// bed must be read on the thread that runs it.
[[nodiscard]] LayerCounters read_counters(workload::TestBed& bed);
[[nodiscard]] LayerLevels read_levels(workload::TestBed& bed);

/// Controller ticks a bed performed by `horizon`: one per period per
/// SERvartuka proxy (PeriodicTimer fires at k*period).
[[nodiscard]] std::uint64_t controller_ticks(workload::TestBed& bed,
                                             SimTime horizon);

/// Shape of the calibration loops, taken from the measured run.
struct CalibrationShape {
  std::size_t pending_events = 1;    // simulator population
  double cancels_per_event = 0.0;    // cancelled / executed
  std::size_t hosts = 2;             // network endpoints
  SimTime link_latency = SimTime::micros(250);
  double cpu_capacity = 1.0;         // cost units per second
  double cpu_cost_per_job = 1.0;
  std::size_t txn_population = 0;    // live transactions at one proxy
  std::size_t dialog_population = 0;
  int users = 2;                     // location-service bindings
};

/// Calibrated host nanoseconds per operation of each layer.
struct LayerCosts {
  double event_ns = 0.0;     // schedule + dispatch (+ cancel churn)
  double datagram_ns = 0.0;  // Network::send + delivery
  double submit_ns = 0.0;    // CpuQueue::submit
  double forward_ns = 0.0;   // clone + push_via + finish + release
  double txn_ns = 0.0;       // create_server + dispatch + respond + removal
  double dialog_ns = 0.0;    // create_early + confirm + match + terminate
  double lookup_ns = 0.0;    // LocationService::lookup_uri
  double decide_ns = 0.0;    // Controller::decide
  double tick_ns = 0.0;      // Controller::on_tick
};

[[nodiscard]] LayerCosts calibrate(const CalibrationShape& shape);

}  // namespace svk::e2e

// Tracer — typed simulation events exported as Chrome trace_event JSON.
//
// Components record instants (message rx/tx, state decisions, CPU rejects,
// overload signals, window ticks), complete spans (CPU service time), and
// counter tracks (utilization, backlog) against the simulated clock. The
// export is the Chrome/Perfetto `trace_event` "JSON Array Format": load the
// file in chrome://tracing or https://ui.perfetto.dev and every node shows
// up as its own named thread with its CPU occupancy and control events on a
// shared timeline.
//
// Event names/categories/argument names must be string literals (or other
// static-lifetime strings): the tracer stores string_views unescaped and
// the hot path must not allocate. The buffer is bounded — once
// `max_events` is reached new events are counted as dropped, never
// reallocated — so tracing a runaway run cannot exhaust memory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/sim_time.hpp"

namespace svk::obs {

/// One recorded event in (a subset of) the trace_event model.
struct TraceEvent {
  std::string_view name;      // static lifetime
  std::string_view category;  // static lifetime
  char phase = 'i';           // 'i' instant, 'X' complete, 'C' counter
  SimTime ts;
  SimTime dur;                // complete events only
  std::uint32_t tid = 0;      // node id (proxy address)
  // Up to two numeric arguments; unused when the name view is empty.
  std::string_view arg0_name;
  double arg0 = 0.0;
  std::string_view arg1_name;
  double arg1 = 0.0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;  // ~262k events

  explicit Tracer(std::size_t max_events = kDefaultCapacity);

  /// Point-in-time event ('i').
  void instant(std::string_view name, std::string_view category, SimTime ts,
               std::uint32_t tid, std::string_view arg0_name = {},
               double arg0 = 0.0, std::string_view arg1_name = {},
               double arg1 = 0.0);

  /// Duration span ('X'), e.g. one unit of CPU service.
  void complete(std::string_view name, std::string_view category,
                SimTime start, SimTime dur, std::uint32_t tid,
                std::string_view arg0_name = {}, double arg0 = 0.0);

  /// Counter track ('C'): renders as a per-node stacked area chart.
  void counter(std::string_view name, SimTime ts, std::uint32_t tid,
               std::string_view value_name, double value);

  /// Names the per-node timeline ("thread") in the viewer.
  void set_thread_name(std::uint32_t tid, std::string name);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Builds {"traceEvents": [...], "displayTimeUnit": "ms", ...}.
  [[nodiscard]] JsonValue to_chrome_json() const;

  /// Writes the Chrome trace file. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  void push(TraceEvent event);

  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_{0};
  std::unordered_map<std::uint32_t, std::string> thread_names_;
};

}  // namespace svk::obs

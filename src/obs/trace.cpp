#include "obs/trace.hpp"

#include <algorithm>
#include <utility>

namespace svk::obs {
namespace {

/// trace_event timestamps are microseconds. Integer export keeps the JSON
/// compact and avoids scientific notation ("1e+06") in viewers.
std::int64_t to_us(SimTime t) { return t.ns() / 1000; }

}  // namespace

Tracer::Tracer(std::size_t max_events) : max_events_(max_events) {
  events_.reserve(max_events_ < 4096 ? max_events_ : 4096);
}

void Tracer::push(TraceEvent event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void Tracer::instant(std::string_view name, std::string_view category,
                     SimTime ts, std::uint32_t tid,
                     std::string_view arg0_name, double arg0,
                     std::string_view arg1_name, double arg1) {
  push(TraceEvent{name, category, 'i', ts, SimTime{}, tid, arg0_name, arg0,
                  arg1_name, arg1});
}

void Tracer::complete(std::string_view name, std::string_view category,
                      SimTime start, SimTime dur, std::uint32_t tid,
                      std::string_view arg0_name, double arg0) {
  push(TraceEvent{name, category, 'X', start, dur, tid, arg0_name, arg0,
                  {}, 0.0});
}

void Tracer::counter(std::string_view name, SimTime ts, std::uint32_t tid,
                     std::string_view value_name, double value) {
  push(TraceEvent{name, "counter", 'C', ts, SimTime{}, tid, value_name,
                  value, {}, 0.0});
}

void Tracer::set_thread_name(std::uint32_t tid, std::string name) {
  thread_names_[tid] = std::move(name);
}

JsonValue Tracer::to_chrome_json() const {
  JsonValue root = JsonValue::object();
  JsonValue& list = root["traceEvents"];
  list = JsonValue::array();

  // Metadata first: name each node's timeline. Sorted for stable output.
  std::vector<std::pair<std::uint32_t, std::string>> names(
      thread_names_.begin(), thread_names_.end());
  std::sort(names.begin(), names.end());
  for (const auto& [tid, name] : names) {
    JsonValue meta = JsonValue::object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = static_cast<std::uint64_t>(tid);
    meta["args"]["name"] = name;
    list.push_back(std::move(meta));
  }

  for (const TraceEvent& event : events_) {
    JsonValue e = JsonValue::object();
    e["name"] = event.name;
    if (event.phase != 'C') e["cat"] = event.category;
    e["ph"] = std::string(1, event.phase);
    e["ts"] = to_us(event.ts);
    if (event.phase == 'X') e["dur"] = to_us(event.dur);
    if (event.phase == 'i') e["s"] = "t";  // thread-scoped instant
    e["pid"] = 1;
    e["tid"] = static_cast<std::uint64_t>(event.tid);
    if (!event.arg0_name.empty() || !event.arg1_name.empty()) {
      JsonValue& args = e["args"];
      args = JsonValue::object();
      if (!event.arg0_name.empty()) args[event.arg0_name] = event.arg0;
      if (!event.arg1_name.empty()) args[event.arg1_name] = event.arg1;
    }
    list.push_back(std::move(e));
  }

  root["displayTimeUnit"] = "ms";
  JsonValue& meta = root["metadata"];
  meta["tool"] = "servartuka";
  meta["clock"] = "simulated";
  meta["dropped_events"] = dropped_;
  return root;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  // Compact output: traces get large and viewers do not need indentation.
  return to_chrome_json().write_file(path, /*indent=*/-1);
}

}  // namespace svk::obs

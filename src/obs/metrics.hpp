// MetricRegistry — named counters, gauges, and sim-time-windowed
// time-series samplers.
//
// The registry is a passive recording surface: nothing in the simulation
// reads metrics back, so attaching or detaching a registry can never change
// simulated results. Instruments are created on first use and live for the
// registry's lifetime (entries are held in deques, so references handed out
// stay valid as more instruments are registered). Time series are
// fixed-capacity ring buffers that keep the most recent samples and count
// what they dropped — memory use is bounded no matter how long a run is.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/sim_time.hpp"

namespace svk::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0.0};
};

/// One (sim time, value) observation.
struct Sample {
  SimTime at;
  double value = 0.0;
};

/// Fixed-capacity ring buffer of samples: keeps the newest `capacity`
/// observations, counts the rest as dropped.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity);

  void sample(SimTime at, double value);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buffer_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Retained samples, oldest first.
  [[nodiscard]] std::vector<Sample> samples() const;

 private:
  std::vector<Sample> buffer_;
  std::size_t head_{0};  // next write position
  std::size_t size_{0};
  std::uint64_t dropped_{0};
};

class MetricRegistry;

/// Pre-resolved counter reference for hot paths. Looking an instrument up
/// by name costs a string hash plus a map probe per event; a handle does
/// that once per registry and afterwards is a pointer compare + increment.
/// Registries attach late and differ per bed, so the handle re-resolves
/// whenever the registry pointer it is shown changes (instrument references
/// are stable for a registry's lifetime — deque-backed).
class CounterHandle {
 public:
  explicit CounterHandle(std::string name) : name_(std::move(name)) {}

  void inc(MetricRegistry* registry, std::uint64_t n = 1);

 private:
  std::string name_;
  MetricRegistry* registry_{nullptr};
  Counter* counter_{nullptr};
};

/// Pre-resolved gauge reference; same contract as CounterHandle.
class GaugeHandle {
 public:
  explicit GaugeHandle(std::string name) : name_(std::move(name)) {}

  void set(MetricRegistry* registry, double v);

 private:
  std::string name_;
  MetricRegistry* registry_{nullptr};
  Gauge* gauge_{nullptr};
};

/// Pre-resolved time-series reference; same contract as CounterHandle.
class SeriesHandle {
 public:
  explicit SeriesHandle(std::string name) : name_(std::move(name)) {}

  void sample(MetricRegistry* registry, SimTime at, double v);

 private:
  std::string name_;
  MetricRegistry* registry_{nullptr};
  TimeSeries* series_{nullptr};
};

/// Name-indexed instrument registry with stable creation order.
class MetricRegistry {
 public:
  /// Default ring capacity for series created without an explicit one.
  static constexpr std::size_t kDefaultSeriesCapacity = 4096;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  TimeSeries& series(std::string_view name,
                     std::size_t capacity = kDefaultSeriesCapacity);

  /// Serializes every instrument:
  /// {"counters": {...}, "gauges": {...}, "series": {name: {...}}}.
  [[nodiscard]] JsonValue to_json() const;

 private:
  // Deques keep references stable; the maps index into them by name.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, TimeSeries>> series_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> series_index_;
};

inline void CounterHandle::inc(MetricRegistry* registry, std::uint64_t n) {
  if (registry == nullptr) return;
  if (registry != registry_) {
    registry_ = registry;
    counter_ = &registry->counter(name_);
  }
  counter_->inc(n);
}

inline void GaugeHandle::set(MetricRegistry* registry, double v) {
  if (registry == nullptr) return;
  if (registry != registry_) {
    registry_ = registry;
    gauge_ = &registry->gauge(name_);
  }
  gauge_->set(v);
}

inline void SeriesHandle::sample(MetricRegistry* registry, SimTime at,
                                 double v) {
  if (registry == nullptr) return;
  if (registry != registry_) {
    registry_ = registry;
    series_ = &registry->series(name_);
  }
  series_->sample(at, v);
}

}  // namespace svk::obs

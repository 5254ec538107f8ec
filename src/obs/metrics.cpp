#include "obs/metrics.hpp"

#include <cassert>

namespace svk::obs {

TimeSeries::TimeSeries(std::size_t capacity) : buffer_(capacity) {
  assert(capacity > 0);
}

void TimeSeries::sample(SimTime at, double value) {
  if (size_ == buffer_.size()) {
    ++dropped_;  // the slot being overwritten held the oldest sample
  } else {
    ++size_;
  }
  buffer_[head_] = Sample{at, value};
  head_ = (head_ + 1) % buffer_.size();
}

std::vector<Sample> TimeSeries::samples() const {
  std::vector<Sample> out;
  out.reserve(size_);
  const std::size_t start =
      (head_ + buffer_.size() - size_) % buffer_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(buffer_[(start + i) % buffer_.size()]);
  }
  return out;
}

Counter& MetricRegistry::counter(std::string_view name) {
  if (const auto it = counter_index_.find(std::string(name));
      it != counter_index_.end()) {
    return counters_[it->second].second;
  }
  counters_.emplace_back(std::string(name), Counter{});
  counter_index_.emplace(std::string(name), counters_.size() - 1);
  return counters_.back().second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  if (const auto it = gauge_index_.find(std::string(name));
      it != gauge_index_.end()) {
    return gauges_[it->second].second;
  }
  gauges_.emplace_back(std::string(name), Gauge{});
  gauge_index_.emplace(std::string(name), gauges_.size() - 1);
  return gauges_.back().second;
}

TimeSeries& MetricRegistry::series(std::string_view name,
                                   std::size_t capacity) {
  if (const auto it = series_index_.find(std::string(name));
      it != series_index_.end()) {
    return series_[it->second].second;
  }
  series_.emplace_back(std::string(name), TimeSeries{capacity});
  series_index_.emplace(std::string(name), series_.size() - 1);
  return series_.back().second;
}

JsonValue MetricRegistry::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue& counters = root["counters"];
  counters = JsonValue::object();
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter.value();
  }
  JsonValue& gauges = root["gauges"];
  gauges = JsonValue::object();
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = gauge.value();
  }
  JsonValue& series = root["series"];
  series = JsonValue::object();
  for (const auto& [name, ts] : series_) {
    JsonValue entry = JsonValue::object();
    entry["capacity"] = static_cast<std::uint64_t>(ts.capacity());
    entry["dropped"] = ts.dropped();
    JsonValue& points = entry["points"];
    points = JsonValue::array();
    for (const Sample& sample : ts.samples()) {
      JsonValue p = JsonValue::object();
      p["t"] = sample.at.to_seconds();
      p["v"] = sample.value;
      points.push_back(std::move(p));
    }
    series[name] = std::move(entry);
  }
  return root;
}

}  // namespace svk::obs

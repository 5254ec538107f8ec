// Shared bench harness utilities.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the simulated topologies at 1/10 of the calibrated capacity (linear
// scaling is verified by CostModelTest.SaturationScalesWithCapacity and the
// workload tests), converts results back to full-scale calls/second, and
// prints a paper-vs-measured summary before writing BENCH_<name>.json.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/run_record.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk::bench {

/// Worker threads for the parallel sweep runner: 0 means "hardware
/// concurrency". Set by --threads=N.
inline std::size_t g_threads = 0;

/// Resolved thread count actually used by the runner.
[[nodiscard]] inline std::size_t effective_threads() {
  return g_threads != 0 ? g_threads : ThreadPool::default_threads();
}

/// Chrome trace output path (empty = tracing off). Set by --trace=<file>.
inline std::string g_trace_path;

/// Metrics dump path (empty = off). Set by --metrics=<file>.
inline std::string g_metrics_path;

/// Fault plan file (empty = fault-free). Set by --faults=<file>; the plan
/// is armed on every scenario the bench builds, so any figure can be
/// reproduced under a fault schedule.
inline std::string g_faults_path;

/// Shared bench entry point: parses the harness flags. --trace= and
/// --metrics= select the traced smoke point, so only benches that define
/// one (`has_smoke_point`) accept them. Any other argument, or a flag with
/// an empty value, prints a usage line and exits 2.
inline void initialize(int argc, char** argv, bool has_smoke_point = false) {
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--threads=N] [--faults=FILE]%s\n",
                 argv[0],
                 has_smoke_point ? " [--trace=FILE] [--metrics=FILE]" : "");
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // The flag's non-empty value, or null.
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.size() > flag.size() && arg.starts_with(flag)
                 ? argv[i] + flag.size()
                 : nullptr;
    };
    if (const char* v = value("--threads=")) {
      const std::string_view text = v;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), g_threads);
      if (ec != std::errc() || end != text.data() + text.size()) usage();
    } else if (const char* v = value("--faults=")) {
      g_faults_path = v;
    } else if (const char* v = has_smoke_point ? value("--trace=") : nullptr) {
      g_trace_path = v;
    } else if (const char* v =
                   has_smoke_point ? value("--metrics=") : nullptr) {
      g_metrics_path = v;
    } else {
      usage();
    }
  }
}

/// True when the user asked for a trace or metrics dump.
[[nodiscard]] inline bool observability_requested() {
  return !g_trace_path.empty() || !g_metrics_path.empty();
}

/// Simulation scale: capacities (and hence rates) at 1/10 of calibration.
inline constexpr double kScale = 0.1;

/// Converts a measured (scaled) rate to full-scale calls/second.
[[nodiscard]] inline double full(double scaled_cps) {
  return scaled_cps / kScale;
}
/// Converts a full-scale rate to the scaled simulation units.
[[nodiscard]] inline double scaled(double full_cps) {
  return full_cps * kScale;
}

/// Loads g_faults_path into `options.faults`. Exits on a malformed plan so
/// a typo'd file cannot silently run fault-free.
inline void apply_cli_faults(workload::ScenarioOptions& options) {
  if (g_faults_path.empty()) return;
  std::string error;
  auto plan = fault::FaultPlan::load_file(g_faults_path, &error);
  if (!plan) {
    std::fprintf(stderr, "failed to load fault plan %s: %s\n",
                 g_faults_path.c_str(), error.c_str());
    std::exit(1);
  }
  options.faults = std::move(*plan);
}

[[nodiscard]] inline workload::ScenarioOptions scenario(
    workload::PolicyKind policy, int max_proxies = 4) {
  workload::ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale.assign(max_proxies, kScale);
  options.controller_period = SimTime::seconds(1.0);  // the paper's window
  apply_cli_faults(options);
  return options;
}

[[nodiscard]] inline workload::MeasureOptions measure_options() {
  workload::MeasureOptions options;
  options.warmup = SimTime::seconds(10.0);  // controller convergence
  options.measure = SimTime::seconds(10.0);
  return options;
}

/// One plotted series: (offered, value) in full-scale units, plus the full
/// measured records behind the plot for the JSON report.
struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;
  double max_value = 0.0;
  std::vector<RunRecord> records;
};

/// Converts a measured (scaled) point to a full-scale record.
[[nodiscard]] inline RunRecord full_record(const workload::PointResult& point,
                                           std::string label = {}) {
  return workload::to_run_record(point, 1.0 / kScale, std::move(label));
}

/// Runs a load sweep on g_threads workers and extracts the throughput
/// series (full-scale). The thread count changes wall-clock time only.
[[nodiscard]] inline Series run_throughput_series(
    const std::string& name, const workload::BedFactory& factory,
    double lo_full, double hi_full, double step_full) {
  Series series;
  series.name = name;
  const auto sweep = workload::sweep(
      factory, scaled(lo_full), scaled(hi_full), scaled(step_full),
      measure_options(), g_threads);
  for (const auto& point : sweep.points) {
    series.points.emplace_back(full(point.offered_cps),
                               full(point.throughput_cps));
    series.records.push_back(full_record(point, name));
  }
  series.max_value = full(sweep.max_throughput_cps);
  return series;
}

/// Saturation search (workload::find_saturation) in full-scale units.
[[nodiscard]] inline double find_saturation_full(
    const workload::BedFactory& factory, double lo_full, double hi_full,
    double step_full,
    const workload::MeasureOptions& options = measure_options()) {
  return full(workload::find_saturation(
      factory, scaled(lo_full), scaled(hi_full), scaled(step_full), options,
      g_threads));
}

inline void print_series_table(const char* title, const char* y_label,
                               const std::vector<Series>& series) {
  std::printf("\n%s\n", title);
  std::printf("%-14s", "offered(cps)");
  for (const Series& s : series) std::printf(" %18s", s.name.c_str());
  std::printf("\n");
  // Assume aligned x-grids (same sweep parameters).
  const std::size_t rows = series.empty() ? 0 : series.front().points.size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("%-14.0f", series.front().points[i].first);
    for (const Series& s : series) {
      if (i < s.points.size()) {
        std::printf(" %18.0f", s.points[i].second);
      } else {
        std::printf(" %18s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf("(%s)\n", y_label);
}

/// Renders series as an ASCII scatter plot (one glyph per series), so the
/// bench output visually mirrors the paper's figure.
inline void print_ascii_chart(const char* title,
                              const std::vector<Series>& series,
                              int width = 68, int height = 20) {
  if (series.empty() || series.front().points.empty()) return;
  double x_min = 1e300, x_max = -1e300, y_min = 0.0, y_max = -1e300;
  for (const Series& s : series) {
    for (const auto& [x, y] : s.points) {
      x_min = std::min(x_min, x);
      x_max = std::max(x_max, x);
      y_max = std::max(y_max, y);
    }
  }
  if (x_max <= x_min || y_max <= y_min) return;
  y_max *= 1.05;

  static constexpr char kGlyphs[] = {'*', 'o', '+', 'x', '#'};
  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    for (const auto& [x, y] : series[si].points) {
      const int col = static_cast<int>((x - x_min) / (x_max - x_min) *
                                       (width - 1));
      const int row = static_cast<int>((y - y_min) / (y_max - y_min) *
                                       (height - 1));
      const int r = height - 1 - std::clamp(row, 0, height - 1);
      grid[r][std::clamp(col, 0, width - 1)] = glyph;
    }
  }

  std::printf("\n%s\n", title);
  for (int r = 0; r < height; ++r) {
    const double y_label =
        y_min + (y_max - y_min) * (height - 1 - r) / (height - 1);
    std::printf("%9.0f |%s\n", y_label, grid[r].c_str());
  }
  std::printf("%9s +%s\n", "", std::string(width, '-').c_str());
  std::printf("%9s  %-10.0f%*.0f\n", "", x_min, width - 10, x_max);
  std::printf("%9s  legend:", "");
  for (std::size_t si = 0; si < series.size(); ++si) {
    std::printf("  %c %s", kGlyphs[si % sizeof(kGlyphs)],
                series[si].name.c_str());
  }
  std::printf("\n");
}

inline void print_paper_row(const char* metric, double paper,
                            double measured) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("  %-46s paper %10.0f   measured %10.0f   (x%.2f)\n", metric,
              paper, measured, ratio);
}

inline void print_header(const char* figure, const char* description) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==============================================================\n");
}

/// Where BENCH_<name>.json files land: $SVK_BENCH_JSON_DIR when set,
/// otherwise the repo root (baked in at configure time), otherwise the
/// current directory.
[[nodiscard]] inline std::string json_output_dir() {
  if (const char* env = std::getenv("SVK_BENCH_JSON_DIR")) return env;
#ifdef SVK_REPO_ROOT
  return SVK_REPO_ROOT;
#else
  return ".";
#endif
}

/// Machine-readable bench results. Every bench binary fills one of these
/// alongside its stdout tables and writes BENCH_<name>.json (schema in
/// EXPERIMENTS.md). All rates are full-scale calls/second.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    root_ = JsonValue::object();
    root_["bench"] = name_;
    root_["schema_version"] = 1;
    root_["scale"] = kScale;
    root_["threads"] = static_cast<std::uint64_t>(effective_threads());
    root_["units"] = "full-scale calls/second";
  }

  /// Free-form access for bench-specific payloads.
  [[nodiscard]] JsonValue& root() { return root_; }

  /// Adds a sweep series with its full per-point records.
  void add_series(const Series& series) {
    JsonValue entry = JsonValue::object();
    entry["name"] = series.name;
    entry["max_value"] = series.max_value;
    JsonValue& points = entry["points"];
    points = JsonValue::array();
    if (!series.records.empty()) {
      for (const RunRecord& record : series.records) {
        points.push_back(record.to_json());
      }
    } else {
      for (const auto& [x, y] : series.points) {
        JsonValue p = JsonValue::object();
        p["x"] = x;
        p["y"] = y;
        points.push_back(std::move(p));
      }
    }
    root_["series"].push_back(std::move(entry));
  }

  /// Adds one scalar result (saturation points, paper anchors, ...).
  void add_metric(std::string_view key, double value) {
    root_["metrics"][key] = value;
  }

  /// Writes BENCH_<name>.json; prints where it went (or that it failed).
  bool write() {
    const std::string path =
        json_output_dir() + "/BENCH_" + name_ + ".json";
    if (root_.write_file(path)) {
      std::printf("\nresults written to %s\n", path.c_str());
      return true;
    }
    std::fprintf(stderr, "\nfailed to write %s\n", path.c_str());
    return false;
  }

 private:
  std::string name_;
  JsonValue root_;
};

/// The observed run of a bench with a traced smoke point, selected by
/// --trace= / --metrics=: one load point at `offered_full` (full-scale
/// cps) instead of the bench's sweeps. Writes the Chrome trace / metrics
/// dump and BENCH_<name>.json holding the point — including its per-window
/// controller audit series — under "traced_smoke". Returns the exit
/// status: non-zero when any output could not be written.
[[nodiscard]] inline int run_traced_smoke(std::string name,
                                          const workload::BedFactory& factory,
                                          double offered_full) {
  workload::MeasureOptions options = measure_options();
  options.observe = true;
  workload::ObservedPoint observed =
      workload::measure_point_retained(factory, scaled(offered_full), options);
  obs::Observability* obs = observed.bed->observability();

  bool ok = true;
  JsonValue smoke = JsonValue::object();
  smoke["offered_cps"] = offered_full;
  smoke["point"] = full_record(observed.point, "traced_smoke").to_json();
  if (obs != nullptr && !g_trace_path.empty()) {
    if (obs->tracer()->write_chrome_trace(g_trace_path)) {
      std::printf("trace written to %s (%zu events, %llu dropped)\n",
                  g_trace_path.c_str(), obs->tracer()->events().size(),
                  static_cast<unsigned long long>(obs->tracer()->dropped()));
      smoke["trace_file"] = g_trace_path;
    } else {
      std::fprintf(stderr, "failed to write trace %s\n",
                   g_trace_path.c_str());
      ok = false;
    }
  }
  if (!g_metrics_path.empty()) {
    if (observed.bed->metrics_json().write_file(g_metrics_path)) {
      std::printf("metrics written to %s\n", g_metrics_path.c_str());
      smoke["metrics_file"] = g_metrics_path;
    } else {
      std::fprintf(stderr, "failed to write metrics %s\n",
                   g_metrics_path.c_str());
      ok = false;
    }
  }
  BenchReport report(std::move(name));
  report.root()["traced_smoke"] = std::move(smoke);
  return report.write() && ok ? 0 : 1;
}

}  // namespace svk::bench

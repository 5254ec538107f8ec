#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace svk::e2e {
namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kLineWords = 64 / sizeof(std::uint32_t);
constexpr std::size_t kLines = kReferenceJobBytes / 64;
constexpr int kHops = 20000;
constexpr int kRounds = 2000000;

volatile std::uint64_t g_sink = 0;

/// The job's memory, built once: a random cycle through the lines of a
/// 32 MiB table, one hop per 64-byte line.
struct Chain {
  std::vector<std::uint32_t> next;  // next[line * kLineWords]: next hop
  std::vector<std::uint32_t> path;  // the lines one pass visits, in order

  Chain() : next(kLines * kLineWords) {
    std::vector<std::uint32_t> order(kLines);
    for (std::size_t i = 0; i < kLines; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t state = 3;
    for (std::size_t i = kLines - 1; i > 0; --i) {
      std::swap(order[i], order[splitmix(state) % (i + 1)]);
    }
    for (std::size_t i = 0; i < kLines; ++i) {
      next[order[i] * kLineWords] =
          static_cast<std::uint32_t>(order[(i + 1) % kLines] * kLineWords);
    }
    std::uint32_t at = 0;
    for (int h = 0; h < kHops; ++h) {
      path.push_back(at);
      at = next[at];
    }
  }

  /// Evicts the lines a chase visits from every cache level. Elsewhere
  /// than on x86 the cold chase starts from whatever the caches hold.
  void evict() const {
#if defined(__x86_64__) || defined(__i386__)
    for (const std::uint32_t at : path) _mm_clflush(&next[at]);
    _mm_mfence();
#endif
  }

  /// Reads every line of the table once, in order, so that as much of it
  /// as the shared last-level cache holds is there.
  std::uint64_t load() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < next.size(); i += kLineWords) sum += next[i];
    return sum;
  }

  std::uint64_t chase() const {
    std::uint32_t at = 0;
    for (int h = 0; h < kHops; ++h) at = next[at];
    return at;
  }

  static std::uint64_t arithmetic(std::uint64_t state) {
    std::uint64_t x = 0;
    for (int i = 0; i < kRounds; ++i) x += splitmix(state) >> (x & 7);
    return x;
  }
};

template <class F>
double seconds_of(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = g_sink + f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double ReferenceClock::pass() {
  static const Chain chain;
  // Each part starts from a state the job sets up itself, untimed.
  chain.evict();
  const double cold = seconds_of([] { return chain.chase(); });
  g_sink = g_sink + chain.load();
  const double warm = seconds_of([] { return chain.chase(); });
  const double alu = seconds_of([] { return Chain::arithmetic(g_sink); });
  s_.push_back(cold + warm + alu);
  return s_.back();
}

double ReferenceClock::last_seconds() const {
  return s_.empty() ? kReferenceJobSeconds : s_.back();
}

double ReferenceClock::median_seconds() const {
  if (s_.empty()) return kReferenceJobSeconds;
  std::vector<double> v = s_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ScaledTime::ScaledTime(ReferenceClock& ref) : ref_(ref) { ref_.pass(); }

void ScaledTime::add(double seconds, bool run_phase) {
  open_ += seconds;
  if (run_phase) open_run_ += seconds;
}

double ScaledTime::close() {
  const double before = ref_.last_seconds();
  const double factor = kReferenceJobSeconds / (0.5 * (before + ref_.pass()));
  const double piece = open_ * factor;
  wall_ += piece;
  run_ += open_run_ * factor;
  raw_ += open_;
  open_ = open_run_ = 0.0;
  return piece;
}

}  // namespace svk::e2e

// Allocation budget of the simulated call path.
//
// This binary replaces the global operator new/delete with counting
// versions that forward to malloc/free, which is why it is its own
// executable. It runs the benchmark's SERvartuka chain and 16-exit dialog
// fork at their benchmark rates and counts the heap allocations made in a
// measured window after warm-up. Pools, slabs and tables have settled by
// then, so what remains is per-message and per-call work. Each bound is
// the count the window makes now (it repeats exactly run to run) plus a
// small margin. Before Via branches were stored inline and the CPU-job and
// transaction callables stopped spilling to the heap, the same windows made
// 113.0 and 140.9 allocations per call (DESIGN.md §8); before finished
// transactions became linger records and the UAC stopped allocating a
// retransmission counter per transaction, 39.0 and 54.5; before the user
// agents kept their calls on slabs and Call-IDs and header values became
// inline text, 33.0 and 47.8; before a message became a handle over
// shared, chunk-pooled Via, route, header and body blocks (the INVITE's
// SDP built once per UAC), 5.0 and 18.6; before a finished message became
// a block of the same pools (past 4096 parked blocks per thread, message
// blocks went back to operator delete), 2.0 and 2.1. The chain bed also
// bounds the pooled message bytes it still holds per completed call, which
// is what the responses held for Timer J cost.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "common/sim_time.hpp"
#include "sip/message_pool.hpp"
#include "workload/scenarios.hpp"
#include "workload/testbed.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

[[gnu::noinline]] void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void* counted_aligned_alloc(std::size_t size,
                                              std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

// The helpers stay out of line, so the compiler does not see malloc and
// free through an inlined operator new/delete and flag a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace svk::workload {
namespace {

constexpr double kScale = 0.1;  // the benchmark's 1/10 capacity scale
const SimTime kWarmup = SimTime::seconds(2.0);
const SimTime kMeasure = SimTime::seconds(3.0);

/// The benchmark's bed options: Poisson arrivals, seed 1, the paper's 1 s
/// controller window.
ScenarioOptions bed_options(PolicyKind policy, int max_proxies) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale.assign(static_cast<std::size_t>(max_proxies), kScale);
  options.controller_period = SimTime::seconds(1.0);
  options.poisson_arrivals = true;
  options.seed = 1;
  return options;
}

struct Window {
  std::uint64_t allocs = 0;
  std::uint64_t calls = 0;

  [[nodiscard]] double per_call() const {
    return static_cast<double>(allocs) / static_cast<double>(calls);
  }
};

/// Heap allocations and completed calls in the measured window.
Window measure(const BedFactory& factory, double offered_cps) {
  std::unique_ptr<TestBed> bed = factory(offered_cps);
  bed->start_load();
  bed->run_until(kWarmup);
  const std::uint64_t calls0 = bed->total_completed_calls();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  bed->run_until(kWarmup + kMeasure);
  Window w;
  w.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  w.calls = bed->total_completed_calls() - calls0;
  std::printf("allocations %llu over %llu calls: %.1f per call\n",
              static_cast<unsigned long long>(w.allocs),
              static_cast<unsigned long long>(w.calls), w.per_call());
  return w;
}

/// Pooled message bytes (message blocks and their shared parts) that a
/// bed still holds at the end of the window, per call completed by then.
double held_bytes_per_call(const BedFactory& factory, double offered_cps) {
  const std::int64_t bytes0 = sip::pooled_bytes_in_use();
  std::unique_ptr<TestBed> bed = factory(offered_cps);
  bed->start_load();
  bed->run_until(kWarmup + kMeasure);
  const std::int64_t held = sip::pooled_bytes_in_use() - bytes0;
  const std::uint64_t calls = bed->total_completed_calls();
  const double per_call =
      static_cast<double>(held) / static_cast<double>(calls);
  std::printf("pooled bytes held %lld over %llu calls: %.0f per call\n",
              static_cast<long long>(held),
              static_cast<unsigned long long>(calls), per_call);
  return per_call;
}

void* volatile g_sink = nullptr;

TEST(AllocBudgetTest, CountingAllocatorSeesNew) {
  const std::uint64_t before = g_allocs.load();
  g_sink = ::operator new(64);
  EXPECT_EQ(g_allocs.load(), before + 1);
  ::operator delete(g_sink);
}

// chain2_servartuka: two proxies under the SERvartuka controller at
// 9000 cps full scale.
TEST(AllocBudgetTest, ServartukaChainStaysWithinBudget) {
  constexpr double kBudgetPerCall = 0.5;  // measured 0.05
  const Window w =
      measure(series_chain(2, bed_options(PolicyKind::kServartuka, 4)),
              9000.0 * kScale);
  ASSERT_GT(w.calls, 1000u);
  EXPECT_LE(w.per_call(), kBudgetPerCall);
}

// Most of a stateful run's memory is the final responses that Timer J
// holds for 32 s at the UAS and at each stateful proxy, so the pooled
// bytes still held at the end of the window grow with every call. A change
// that re-inflates a held response (a by-value Via stack, a copied route
// set, a dialog block of its own) fails here, not only in the benchmark's
// peak RSS.
TEST(AllocBudgetTest, ServartukaChainHeldBytesStayWithinBudget) {
  // Measured 772: per call one 336-byte dialog block, which the 200s to
  // the BYE share with the BYE, three 72-byte message blocks and three
  // 72-byte Via nodes. The third message block is the 200 a Timer-K record
  // holds at the UAC: a record is keyed by the message it holds. With a
  // 568-byte identity block per response and keyless K records it was 932,
  // with 80-byte message blocks (message plus shared_ptr control block)
  // 948, and with a by-value Via stack (448-byte message blocks) 1502.
  constexpr double kHeldBytesPerCall = 800.0;
  const double per_call = held_bytes_per_call(
      series_chain(2, bed_options(PolicyKind::kServartuka, 4)),
      9000.0 * kScale);
  EXPECT_LE(per_call, kHeldBytesPerCall);
}

// fork16_dialog: a balancer over 16 dialog-stateful exits with 10 ms links
// at 10000 cps full scale.
TEST(AllocBudgetTest, DialogForkStaysWithinBudget) {
  constexpr int kExits = 16;
  constexpr double kBudgetPerCall = 0.5;  // measured 0.05
  ScenarioOptions options =
      bed_options(PolicyKind::kStaticChainLastStateful, kExits + 1);
  options.num_uacs = 8;
  options.num_uas = 8;
  options.stateful_mode = profile::HandlingMode::kDialogStateful;
  options.link_latency = SimTime::millis(10);
  const Window w = measure(wide_fork(kExits, options), 10000.0 * kScale);
  ASSERT_GT(w.calls, 1000u);
  EXPECT_LE(w.per_call(), kBudgetPerCall);
}

}  // namespace
}  // namespace svk::workload

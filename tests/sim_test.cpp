// Unit tests for the discrete-event simulator: the small-buffer callable,
// event ordering, timers, network links, CPU queue semantics and
// utilization accounting.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/event_action.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace svk::sim {
namespace {

// ---------------------------------------------------------------------------
// InlineFunction (EventAction and the transaction callbacks)
// ---------------------------------------------------------------------------

using SmallFn = InlineFunction<void(), 32>;
using CopyableFn = InlineFunction<void(), 32, true>;

/// A callable whose move constructor may throw: stored on the heap so that
/// relocating the callable never runs user code.
struct ThrowingMove {
  std::shared_ptr<int> token;
  int* calls;
  ThrowingMove(std::shared_ptr<int> t, int* c) : token(std::move(t)), calls(c) {}
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove(ThrowingMove&& other) noexcept(false)
      : token(std::move(other.token)), calls(other.calls) {}
  void operator()() const { ++*calls; }
};

TEST(InlineFunctionTest, SmallCaptureStaysInline) {
  auto token = std::make_shared<int>(0);
  int calls = 0;
  auto lambda = [token, &calls] { ++calls; };
  static_assert(SmallFn::kStoresInline<decltype(lambda)>);
  SmallFn f(std::move(lambda));
  f();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(token.use_count(), 2);
  static_assert(sizeof(EventAction) == 72);  // 64 inline + ops, no padding
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToHeap) {
  auto token = std::make_shared<int>(0);
  std::array<char, 64> pad{};
  pad[0] = 7;
  int seen = 0;
  auto lambda = [token, pad, &seen] { seen += pad[0]; };
  static_assert(!SmallFn::kStoresInline<decltype(lambda)>);
  {
    SmallFn f(std::move(lambda));
    EXPECT_EQ(token.use_count(), 2);
    SmallFn moved(std::move(f));  // moves the heap pointer, not the target
    EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(token.use_count(), 2);
    moved();
    EXPECT_EQ(seen, 7);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunctionTest, OverAlignedCaptureFallsBackToHeap) {
  // The buffer is only pointer-aligned: a wider alignment cannot go inline.
  struct alignas(16) Wide {
    int v = 3;
  };
  int seen = 0;
  auto lambda = [wide = Wide{}, &seen] { seen += wide.v; };
  static_assert(!SmallFn::kStoresInline<decltype(lambda)>);
  SmallFn f(std::move(lambda));
  SmallFn moved(std::move(f));
  moved();
  EXPECT_EQ(seen, 3);
}

TEST(InlineFunctionTest, ThrowingMoveCaptureFallsBackToHeap) {
  static_assert(!SmallFn::kStoresInline<ThrowingMove>);
  auto token = std::make_shared<int>(0);
  int calls = 0;
  {
    SmallFn f(ThrowingMove{token, &calls});
    EXPECT_EQ(token.use_count(), 2);
    SmallFn g;
    g = std::move(f);
    g();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunctionTest, MoveAndResetDestroyTheTargetOnce) {
  auto token = std::make_shared<int>(0);
  SmallFn a([token] {});
  EXPECT_EQ(token.use_count(), 2);
  SmallFn b(std::move(a));  // move-construct: one live target
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b);
  EXPECT_EQ(token.use_count(), 2);
  SmallFn c([] {});
  c = std::move(b);  // move-assign: c's old target goes, b's moves over
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(token.use_count(), 2);
  SmallFn& alias = c;
  c = std::move(alias);  // self-move keeps the target
  EXPECT_TRUE(c);
  EXPECT_EQ(token.use_count(), 2);
  c.reset();
  EXPECT_FALSE(c);
  EXPECT_EQ(token.use_count(), 1);
  c.reset();  // resetting an empty callable is a no-op
  EXPECT_EQ(token.use_count(), 1);
  // Assigning over a live target destroys it exactly once.
  SmallFn d([token] {});
  EXPECT_EQ(token.use_count(), 2);
  d = SmallFn([] {});
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunctionTest, NullptrConstructedIsEmpty) {
  const SmallFn f(nullptr);
  EXPECT_FALSE(f);
  const EventAction e = nullptr;
  EXPECT_FALSE(e);
  const CpuQueue::Completion done(nullptr);
  EXPECT_FALSE(done);
  EXPECT_FALSE(SmallFn());
}

TEST(InlineFunctionTest, ArgumentIsForwardedByConstReference) {
  /// Counts copies, so a by-value hop anywhere on the way would show.
  struct Payload {
    int* copies;
    explicit Payload(int* c) : copies(c) {}
    Payload(const Payload& other) : copies(other.copies) { ++*copies; }
  };
  int copies = 0;
  const Payload payload(&copies);
  const Payload* seen = nullptr;
  InlineFunction<void(const Payload&), 16> f(
      [&seen](const Payload& p) { seen = &p; });
  f(payload);
  EXPECT_EQ(seen, &payload);
  EXPECT_EQ(copies, 0);
}

TEST(InlineFunctionTest, CopyableInstanceCopiesInlineAndHeapTargets) {
  static_assert(std::is_copy_constructible_v<CopyableFn>);
  static_assert(!std::is_copy_constructible_v<SmallFn>);
  auto token = std::make_shared<int>(0);
  int calls = 0;
  std::array<char, 64> pad{};
  const CopyableFn small([token, &calls] { ++calls; });
  const CopyableFn big([token, pad, &calls] { calls += 1 + pad[0]; });
  EXPECT_EQ(token.use_count(), 3);
  {
    CopyableFn a(small);
    CopyableFn b(big);
    EXPECT_EQ(token.use_count(), 5);
    a = big;  // copy-assign over a live target
    EXPECT_EQ(token.use_count(), 5);
    a();
    b();
    EXPECT_EQ(calls, 2);
  }
  EXPECT_EQ(token.use_count(), 3);
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(SimulatorTest, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule(SimTime::millis(-5), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), SimTime{});
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(SimTime::millis(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(0);
  sim.cancel(99999);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule(SimTime::seconds(i), [&] { ++count; });
  }
  sim.run_until(SimTime::seconds(3.5));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), SimTime::seconds(3.5));
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(1), [&] {
    order.push_back(1);
    sim.schedule(SimTime::millis(1), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, ZeroDelayFromWithinEventRunsAtSameTime) {
  Simulator sim;
  SimTime inner_time;
  sim.schedule(SimTime::millis(7), [&] {
    sim.schedule(SimTime{}, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, SimTime::millis(7));
}

TEST(SimulatorTest, ExecutedCountCountsEvents) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule(SimTime::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_count(), 4u);
}

TEST(SimulatorTest, PendingCountTracksScheduleCancelExecute) {
  Simulator sim;
  const EventId a = sim.schedule(SimTime::millis(1), [] {});
  sim.schedule(SimTime::millis(2), [] {});
  sim.schedule(SimTime::millis(3), [] {});
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

// Regression: cancelling an id whose event has already run used to insert a
// tombstone that no queue pop ever reclaimed — pending_count() (then
// computed as queue size minus tombstone count) underflowed to ~2^64 and
// the tombstone set grew without bound.
TEST(SimulatorTest, CancelAfterExecutionKeepsPendingCountSane) {
  Simulator sim;
  const EventId id = sim.schedule(SimTime::millis(1), [] {});
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.cancel(id);  // stale: the event already ran
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_LT(sim.pending_count(), 1000u);  // explicit underflow guard

  // The loop keeps working and later events are unaffected.
  bool ran = false;
  sim.schedule(SimTime::millis(1), [&] { ran = true; });
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, RepeatedStaleCancelsDoNotAccumulate) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule(SimTime::millis(i), [] {}));
  }
  sim.run();
  for (const EventId id : ids) sim.cancel(id);
  for (const EventId id : ids) sim.cancel(id);  // and again, for good measure
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.schedule(SimTime::millis(200), [] {});
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorTest, DoubleCancelCountsOnce) {
  Simulator sim;
  const EventId a = sim.schedule(SimTime::millis(1), [] {});
  sim.schedule(SimTime::millis(2), [] {});
  sim.cancel(a);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed_count(), 1u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, SelfCancelFromInsideActionIsNoop) {
  Simulator sim;
  EventId self = 0;
  self = sim.schedule(SimTime::millis(1), [&] { sim.cancel(self); });
  sim.run();
  EXPECT_EQ(sim.executed_count(), 1u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// Regression: run_until used to duplicate step()'s cancellation filtering
// (peek, erase tombstone, pop — then step() re-popped and re-checked);
// cancelling the queue top from a same-instant event exercised both paths.
// Filtering now happens in exactly one place, so the accounting stays
// consistent.
TEST(SimulatorTest, CancelOfQueueTopDuringRunUntilStaysConsistent) {
  Simulator sim;
  EventId b = 0;
  int runs = 0;
  sim.schedule(SimTime::millis(1), [&] {
    ++runs;
    sim.cancel(b);  // b is the next queue top at the same instant
  });
  b = sim.schedule(SimTime::millis(1), [&] { ++runs; });
  sim.schedule(SimTime::millis(2), [&] { ++runs; });
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(sim.executed_count(), 2u);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

// ---------------------------------------------------------------------------
// PeriodicTimer
// ---------------------------------------------------------------------------

TEST(PeriodicTimerTest, TicksAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::seconds(1.0), [&] { ++ticks; });
  timer.start();
  sim.run_until(SimTime::seconds(5.5));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTimerTest, StopHalts) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::seconds(1.0), [&] { ++ticks; });
  timer.start();
  sim.schedule(SimTime::seconds(2.5), [&] { timer.stop(); });
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, DestructionCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTimer timer(sim, SimTime::seconds(1.0), [&] { ++ticks; });
    timer.start();
    sim.run_until(SimTime::seconds(1.5));
  }
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTimerTest, StartIsIdempotent) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::seconds(1.0), [&] { ++ticks; });
  timer.start();
  timer.start();
  sim.run_until(SimTime::seconds(3.5));
  EXPECT_EQ(ticks, 3);
}

// Regression reproducer for the stale-cancel bug: stop() from inside the
// timer's own on_tick cancels the id of the event that is currently
// executing (it was popped but not yet re-armed). That cancel must be a
// no-op, not a permanent tombstone that corrupts pending accounting.
TEST(PeriodicTimerTest, StopInsideOwnTickKeepsSimulatorConsistent) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer(sim, SimTime::seconds(1.0), [&] {
    ++ticks;
    self->stop();
  });
  self = &timer;
  timer.start();
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(sim.pending_count(), 0u);  // pre-fix: underflowed to ~2^64

  // The timer is reusable after the in-tick stop (and stops itself again).
  timer.start();
  sim.run_until(SimTime::seconds(12.5));
  EXPECT_EQ(ticks, 2);  // re-armed at t=10 -> one tick at t=11, stops again
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(sim.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

using TestNetwork = Network<std::string>;

TEST(NetworkTest, DeliversAfterLatency) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  net.set_default_link(LinkParams{SimTime::millis(5), SimTime{}, 0.0});

  std::string received;
  SimTime received_at;
  net.attach(Address{2}, [&](Address from, std::string payload) {
    EXPECT_EQ(from, Address{1});
    received = std::move(payload);
    received_at = sim.now();
  });
  net.send(Address{1}, Address{2}, "hello");
  sim.run();
  EXPECT_EQ(received, "hello");
  EXPECT_EQ(received_at, SimTime::millis(5));
}

TEST(NetworkTest, UnattachedDestinationCountsAsDrop) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  net.send(Address{1}, Address{9}, "void");
  sim.run();
  EXPECT_EQ(net.stats().dropped_no_route, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(NetworkTest, LossDropsApproximatelyAtRate) {
  Simulator sim;
  TestNetwork net(sim, Rng(42));
  net.set_default_link(LinkParams{SimTime::millis(1), SimTime{}, 0.25});
  int delivered = 0;
  net.attach(Address{2}, [&](Address, std::string) { ++delivered; });
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) net.send(Address{1}, Address{2}, "x");
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.75, 0.02);
  EXPECT_EQ(net.stats().sent, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(net.stats().delivered + net.stats().dropped_loss,
            static_cast<std::uint64_t>(kN));
}

TEST(NetworkTest, PerPairLinkOverridesDefault) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  net.set_default_link(LinkParams{SimTime::millis(1), SimTime{}, 0.0});
  net.set_link(Address{1}, Address{2},
               LinkParams{SimTime::millis(50), SimTime{}, 0.0});
  SimTime at12, at21;
  net.attach(Address{2}, [&](Address, std::string) { at12 = sim.now(); });
  net.attach(Address{1}, [&](Address, std::string) { at21 = sim.now(); });
  net.send(Address{1}, Address{2}, "slow");
  net.send(Address{2}, Address{1}, "fast");
  sim.run();
  EXPECT_EQ(at12, SimTime::millis(50));  // override applies
  EXPECT_EQ(at21, SimTime::millis(1));   // reverse uses default
}

TEST(NetworkTest, JitterBoundsDelay) {
  Simulator sim;
  TestNetwork net(sim, Rng(7));
  net.set_default_link(
      LinkParams{SimTime::millis(10), SimTime::millis(5), 0.0});
  std::vector<SimTime> arrivals;
  net.attach(Address{2},
             [&](Address, std::string) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 200; ++i) net.send(Address{1}, Address{2}, "j");
  sim.run();
  for (const SimTime t : arrivals) {
    EXPECT_GE(t, SimTime::millis(10));
    EXPECT_LE(t, SimTime::millis(15));
  }
}

TEST(NetworkTest, FifoPreservedForEqualLatency) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  std::vector<std::string> order;
  net.attach(Address{2},
             [&](Address, std::string p) { order.push_back(std::move(p)); });
  net.send(Address{1}, Address{2}, "first");
  net.send(Address{1}, Address{2}, "second");
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

// ---------------------------------------------------------------------------
// NetworkFaultState overlay
// ---------------------------------------------------------------------------

TEST(NetworkFaultTest, DownHostNeitherTransmitsNorReceives) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  int delivered_to_2 = 0;
  int delivered_to_3 = 0;
  net.attach(Address{2}, [&](Address, std::string) { ++delivered_to_2; });
  net.attach(Address{3}, [&](Address, std::string) { ++delivered_to_3; });

  net.faults().set_host_down(Address{2}, true);
  net.send(Address{2}, Address{3}, "tx-from-down");  // dropped at send
  net.send(Address{3}, Address{2}, "rx-at-down");    // dropped at delivery
  sim.run();
  EXPECT_EQ(net.stats().dropped_host_down, 1u);
  EXPECT_EQ(net.stats().dropped_no_route, 1u);
  EXPECT_EQ(net.no_route_drops(Address{2}), 1u);
  EXPECT_EQ(delivered_to_2, 0);
  EXPECT_EQ(delivered_to_3, 0);

  net.faults().set_host_down(Address{2}, false);  // restart
  net.send(Address{2}, Address{3}, "alive");
  net.send(Address{3}, Address{2}, "alive");
  sim.run();
  EXPECT_EQ(delivered_to_2, 1);
  EXPECT_EQ(delivered_to_3, 1);
}

TEST(NetworkFaultTest, CrashMidFlightLosesTheDatagram) {
  // Reachability is evaluated at delivery time: a datagram in flight when
  // the destination crashes is lost, not delivered retroactively.
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  net.set_default_link(LinkParams{SimTime::millis(10), SimTime{}, 0.0});
  int delivered = 0;
  net.attach(Address{2}, [&](Address, std::string) { ++delivered; });
  net.send(Address{1}, Address{2}, "in-flight");
  sim.schedule(SimTime::millis(5),
               [&] { net.faults().set_host_down(Address{2}, true); });
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.no_route_drops(Address{2}), 1u);
}

TEST(NetworkFaultTest, LinkDownIsDirected) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  int fwd = 0;
  int rev = 0;
  net.attach(Address{1}, [&](Address, std::string) { ++rev; });
  net.attach(Address{2}, [&](Address, std::string) { ++fwd; });
  net.faults().set_link_down(Address{1}, Address{2}, true);
  net.send(Address{1}, Address{2}, "blocked");
  net.send(Address{2}, Address{1}, "open");
  sim.run();
  EXPECT_EQ(fwd, 0);
  EXPECT_EQ(rev, 1);
  EXPECT_EQ(net.stats().dropped_link_down, 1u);
}

TEST(NetworkFaultTest, LossBurstDropsOnTopOfBaseLink) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  int delivered = 0;
  net.attach(Address{2}, [&](Address, std::string) { ++delivered; });
  net.faults().set_disturbance(Address{1}, Address{2},
                               NetworkFaultState::Disturbance{1.0, SimTime{}});
  for (int i = 0; i < 10; ++i) net.send(Address{1}, Address{2}, "x");
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped_burst, 10u);

  net.faults().clear_disturbance(Address{1}, Address{2});
  net.send(Address{1}, Address{2}, "after");
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkFaultTest, LatencyBurstDelaysDelivery) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  net.set_default_link(LinkParams{SimTime::millis(5), SimTime{}, 0.0});
  SimTime arrival;
  net.attach(Address{2}, [&](Address, std::string) { arrival = sim.now(); });
  net.faults().set_disturbance(
      Address{1}, Address{2},
      NetworkFaultState::Disturbance{0.0, SimTime::millis(20)});
  net.send(Address{1}, Address{2}, "slow");
  sim.run();
  EXPECT_EQ(arrival, SimTime::millis(25));
}

TEST(NetworkFaultTest, WildcardDisturbanceHitsEveryLinkExactPairWins) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  net.set_default_link(LinkParams{SimTime::millis(1), SimTime{}, 0.0});
  SimTime at_2, at_3;
  net.attach(Address{2}, [&](Address, std::string) { at_2 = sim.now(); });
  net.attach(Address{3}, [&](Address, std::string) { at_3 = sim.now(); });
  // Network-wide +10ms, but the 1->3 link specifically gets +30ms.
  net.faults().set_disturbance(
      Address{}, Address{},
      NetworkFaultState::Disturbance{0.0, SimTime::millis(10)});
  net.faults().set_disturbance(
      Address{1}, Address{3},
      NetworkFaultState::Disturbance{0.0, SimTime::millis(30)});
  net.send(Address{1}, Address{2}, "wild");
  net.send(Address{1}, Address{3}, "exact");
  sim.run();
  EXPECT_EQ(at_2, SimTime::millis(11));
  EXPECT_EQ(at_3, SimTime::millis(31));
}

TEST(NetworkFaultTest, EmptyOverlayReportsNoFaults) {
  Simulator sim;
  TestNetwork net(sim, Rng(1));
  EXPECT_FALSE(net.faults().any());
  net.faults().set_host_down(Address{5}, true);
  EXPECT_TRUE(net.faults().any());
  net.faults().set_host_down(Address{5}, false);
  EXPECT_FALSE(net.faults().any());
}

// ---------------------------------------------------------------------------
// CpuQueue
// ---------------------------------------------------------------------------

TEST(CpuQueueTest, ServiceTimeIsCostOverCapacity) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{100.0, SimTime::seconds(10.0)});
  SimTime done_at;
  ASSERT_TRUE(cpu.submit(50.0, [&] { done_at = sim.now(); }));
  sim.run();
  EXPECT_EQ(done_at, SimTime::millis(500));  // 50/100 = 0.5s
}

TEST(CpuQueueTest, CapacityFactorScalesServiceTime) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{100.0, SimTime::seconds(10.0)});
  EXPECT_DOUBLE_EQ(cpu.capacity_factor(), 1.0);
  cpu.set_capacity_factor(0.5);  // degraded: half the nominal capacity
  SimTime slow_done;
  ASSERT_TRUE(cpu.submit(50.0, [&] { slow_done = sim.now(); }));
  EXPECT_EQ(cpu.backlog(), SimTime::seconds(1.0));  // 50 / (100 * 0.5)
  sim.run();
  EXPECT_EQ(slow_done, SimTime::seconds(1.0));
}

TEST(CpuQueueTest, DegradeRescalesUnservedBacklog) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(100.0)});
  ASSERT_TRUE(cpu.submit(4.0, nullptr));  // 4s of work at nominal speed
  sim.run_until(SimTime::seconds(1.0));   // 3s still unserved
  cpu.set_capacity_factor(0.5);           // degrade: the remainder takes 6s
  EXPECT_EQ(cpu.backlog(), SimTime::seconds(6.0));
  // New work queues behind the stretched backlog at the degraded rate.
  SimTime done;
  ASSERT_TRUE(cpu.submit(1.0, [&] { done = sim.now(); }));
  sim.run();
  EXPECT_EQ(done, SimTime::seconds(9.0));  // 1 + 6 + 1/(1*0.5)
}

TEST(CpuQueueTest, RecoveryShrinksUnservedBacklog) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(100.0)});
  cpu.set_capacity_factor(0.5);
  ASSERT_TRUE(cpu.submit(2.0, nullptr));  // 4s at half speed
  sim.run_until(SimTime::seconds(2.0));   // 2s still unserved
  cpu.set_capacity_factor(1.0);           // recover: the remainder takes 1s
  EXPECT_EQ(cpu.backlog(), SimTime::seconds(1.0));
}

TEST(CpuQueueTest, BusyElapsedContinuousAcrossRescale) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(100.0)});
  UtilizationProbe probe(cpu, sim);
  ASSERT_TRUE(cpu.submit(10.0, nullptr));  // saturated well past the window
  sim.run_until(SimTime::seconds(1.0));
  const SimTime before = cpu.busy_elapsed(sim.now());
  cpu.set_capacity_factor(0.25);  // degrade mid-window
  EXPECT_EQ(cpu.busy_elapsed(sim.now()), before);  // no jump at the change
  sim.run_until(SimTime::seconds(2.0));
  // Saturated for the whole window regardless of the mid-window rescale.
  EXPECT_DOUBLE_EQ(probe.utilization(), 1.0);
}

TEST(CpuQueueTest, FifoBacklogAccumulates) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(100.0)});
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        cpu.submit(1.0, [&] { completions.push_back(sim.now().to_seconds()); }));
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 2.0);
  EXPECT_DOUBLE_EQ(completions[2], 3.0);
}

TEST(CpuQueueTest, RejectsBeyondBacklogBound) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(2.0)});
  EXPECT_TRUE(cpu.submit(1.0, nullptr));   // backlog 0 -> 1s
  EXPECT_TRUE(cpu.submit(1.0, nullptr));   // backlog 1 -> 2s
  EXPECT_TRUE(cpu.submit(1.0, nullptr));   // backlog 2s == bound -> admitted
  EXPECT_FALSE(cpu.submit(1.0, nullptr));  // backlog 3s > bound -> rejected
  EXPECT_EQ(cpu.stats().admitted, 3u);
  EXPECT_EQ(cpu.stats().rejected, 1u);
}

TEST(CpuQueueTest, UrgentBypassesAdmission) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(0.5)});
  ASSERT_TRUE(cpu.submit(1.0, nullptr));
  EXPECT_FALSE(cpu.submit(1.0, nullptr));
  bool ran = false;
  cpu.submit_urgent(1.0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(CpuQueueTest, BacklogDrainsOverTime) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(10.0)});
  ASSERT_TRUE(cpu.submit(2.0, nullptr));
  EXPECT_EQ(cpu.backlog(), SimTime::seconds(2.0));
  sim.run_until(SimTime::seconds(1.5));
  EXPECT_EQ(cpu.backlog(), SimTime::millis(500));
  sim.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(cpu.backlog(), SimTime{});
}

TEST(CpuQueueTest, BusyElapsedTracksWork) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(10.0)});
  ASSERT_TRUE(cpu.submit(1.0, nullptr));
  sim.run_until(SimTime::seconds(4.0));
  // 1s of work in 4s elapsed.
  EXPECT_EQ(cpu.busy_elapsed(sim.now()), SimTime::seconds(1.0));
}

TEST(CpuQueueTest, UtilizationProbeMeasuresWindow) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(100.0)});
  UtilizationProbe probe(cpu, sim);
  // Submit 1s of work every 2s: 50% utilization.
  for (int i = 0; i < 5; ++i) {
    sim.schedule(SimTime::seconds(2.0 * i),
                 [&] { ASSERT_TRUE(cpu.submit(1.0, nullptr)); });
  }
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_NEAR(probe.utilization(), 0.5, 0.01);
}

TEST(CpuQueueTest, UtilizationSaturatesAtOne) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(1000.0)});
  UtilizationProbe probe(cpu, sim);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(cpu.submit(1.0, nullptr));
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_NEAR(probe.utilization(), 1.0, 1e-9);
}

TEST(CpuQueueTest, ProbeRestartForgetsHistory) {
  Simulator sim;
  CpuQueue cpu(sim, CpuQueueConfig{1.0, SimTime::seconds(1000.0)});
  UtilizationProbe probe(cpu, sim);
  ASSERT_TRUE(cpu.submit(1.0, nullptr));
  sim.run_until(SimTime::seconds(1.0));  // 100% so far
  probe.restart();
  sim.run_until(SimTime::seconds(2.0));  // idle second
  EXPECT_NEAR(probe.utilization(), 0.0, 1e-9);
}

}  // namespace
}  // namespace svk::sim

// Timer-wheel event store: ordering vs a reference heap, eager-cancel
// memory behavior, zero-allocation steady state, and schedule/cancel-heavy
// determinism. These pin the contracts the simulator core swap relies on
// (see src/sim/timer_wheel.hpp for the invariants being exercised).
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/md5.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "sip/message.hpp"
#include "sip/message_pool.hpp"
#include "sip/parser.hpp"

namespace svk::sim {
namespace {

using svk::Rng;

/// Delays spanning the wheel's regimes: same-tick, low levels, RFC 3261
/// timer scale, ~20 hours, and days past 2^48 ns (levels 8 and up).
std::int64_t random_delay_ns(Rng& rng) {
  switch (rng.uniform_int(6)) {
    case 0: return 0;                                             // same tick
    case 1: return static_cast<std::int64_t>(rng.uniform_int(64));
    case 2: return static_cast<std::int64_t>(rng.uniform_int(500'000));
    case 3: return 500'000'000 +                                  // timer A..F
                   static_cast<std::int64_t>(rng.uniform_int(63'500'000'000));
    case 4: return static_cast<std::int64_t>(rng.uniform_int(1ll << 46));
    default:                                                      // far
      return (1ll << 48) +
             static_cast<std::int64_t>(rng.uniform_int(1ll << 49));
  }
}

// ---------------------------------------------------------------------------
// Ordering: the wheel must pop events in exactly (time, schedule-order),
// matching the old priority-queue tie-break. Oracle: a sorted list.
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, MatchesReferenceOrderUnderRandomChurn) {
  Rng rng(0xfeedfaceu);
  TimerWheel wheel;

  struct Expected {
    std::int64_t at;
    std::uint64_t seq;
    EventId id;
  };
  std::vector<Expected> oracle;  // live events, unsorted
  std::vector<std::uint64_t> popped_seqs;
  std::uint64_t next_seq = 0;
  std::int64_t now = 0;

  for (int round = 0; round < 2000; ++round) {
    // Burst of schedules.
    const std::uint64_t burst = 1 + rng.uniform_int(8);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const std::int64_t at = now + random_delay_ns(rng);
      const std::uint64_t seq = next_seq++;
      const EventId id = wheel.insert_keyed(
          SimTime::nanos(at), make_order_key(0, seq), 0,
          [seq, &popped_seqs] { popped_seqs.push_back(seq); });
      oracle.push_back(Expected{at, seq, id});
    }
    // Some cancels.
    while (!oracle.empty() && rng.uniform() < 0.25) {
      const std::size_t victim = rng.uniform_int(oracle.size());
      ASSERT_TRUE(wheel.cancel(oracle[victim].id));
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // Pop a few events and check exact (time, seq) order.
    std::sort(oracle.begin(), oracle.end(),
              [](const Expected& a, const Expected& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    const std::uint64_t pops = rng.uniform_int(6);
    for (std::uint64_t i = 0; i < pops && !oracle.empty(); ++i) {
      SimTime at;
      std::uint32_t locus;
      EventAction action;
      ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
      action();
      ASSERT_EQ(at.ns(), oracle.front().at);
      ASSERT_EQ(popped_seqs.back(), oracle.front().seq);
      now = std::max(now, at.ns());
      oracle.erase(oracle.begin());
    }
    ASSERT_EQ(wheel.size(), oracle.size());
  }

  // Drain; order must stay exact to the end.
  std::sort(oracle.begin(), oracle.end(),
            [](const Expected& a, const Expected& b) {
              return a.at != b.at ? a.at < b.at : a.seq < b.seq;
            });
  for (const Expected& e : oracle) {
    SimTime at;
    std::uint32_t locus;
    EventAction action;
    ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
    action();
    ASSERT_EQ(at.ns(), e.at);
    ASSERT_EQ(popped_seqs.back(), e.seq);
  }
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_FALSE(wheel.pop_until(SimTime::max(), nullptr, nullptr, nullptr));
}

// ---------------------------------------------------------------------------
// Memory behavior under heavy schedule/cancel churn.
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, CancelIsEagerAndCapacityStaysBounded) {
  Simulator sim;
  constexpr std::size_t kBatch = 20'000;

  // Warm the pool with one full batch.
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ids.push_back(sim.schedule(SimTime::seconds(1.0 + double(i % 180)),
                               [] {}));
  }
  EXPECT_EQ(sim.pending_count(), kBatch);
  for (EventId id : ids) sim.cancel(id);
  // Eager removal: the count drops to zero immediately, with no tombstones
  // waiting for the clock to pass them.
  EXPECT_EQ(sim.pending_count(), 0u);

  const std::size_t capacity_after_warmup = sim.event_store().node_capacity();
  EXPECT_GE(capacity_after_warmup, kBatch);

  // Many more churn rounds, with days-long delays mixed in: capacity must
  // not move.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    ids.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const double delay =
          rng.uniform() < 0.3 ? 3600.0 * 24 * (1 + double(rng.uniform_int(30)))
                              : 0.5 + double(rng.uniform_int(64));
      ids.push_back(sim.schedule(SimTime::seconds(delay), [] {}));
    }
    for (EventId id : ids) sim.cancel(id);
    ASSERT_EQ(sim.pending_count(), 0u);
  }
  EXPECT_EQ(sim.event_store().node_capacity(), capacity_after_warmup);

  // Stale cancels remain harmless no-ops.
  sim.cancel(0);
  sim.cancel(ids.front());
  sim.cancel(0xdeadbeefdeadbeefull);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(TimerWheelTest, SteadyStateSchedulingAllocatesNothing) {
  Simulator sim;

  // 256 self-rescheduling timers plus per-tick schedule/cancel churn: the
  // working set of live events is constant, so after warmup the node slab
  // must never grow again. This is the zero-heap-allocation-per-event
  // assertion, made via the slab's capacity.
  constexpr int kTimers = 256;
  struct Churn {
    Simulator* sim;
    SimTime period;
    std::uint64_t ticks = 0;
    EventId cancelled_probe = 0;
    void arm() {
      // Each tick also schedules a probe and cancels it — exercising the
      // cancel path's node recycling inside the steady loop.
      cancelled_probe = sim->schedule(SimTime::millis(250), [] {});
      sim->cancel(cancelled_probe);
      ++ticks;
      sim->schedule(period, [this] { arm(); });
    }
  };
  std::array<Churn, kTimers> churns;
  for (int i = 0; i < kTimers; ++i) {
    churns[i] = Churn{&sim, SimTime::micros(50 + i % 100)};
    churns[i].arm();
  }

  sim.run_until(SimTime::seconds(1.0));
  const std::size_t warm_capacity = sim.event_store().node_capacity();
  const std::uint64_t warm_executed = sim.executed_count();

  sim.run_until(SimTime::seconds(3.0));
  EXPECT_GT(sim.executed_count(), warm_executed + 1'000'000);
  EXPECT_EQ(sim.event_store().node_capacity(), warm_capacity);
}

// ---------------------------------------------------------------------------
// Determinism: a schedule/cancel-heavy randomized run is bit-reproducible.
// ---------------------------------------------------------------------------

std::string churn_digest(std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  Md5 md5;
  std::vector<EventId> live;
  // Schedule budget: each executed event spawns children only while budget
  // remains, so the run is schedule/cancel-heavy but strictly bounded.
  std::uint64_t budget = 50'000;

  struct Tick {
    Simulator* sim;
    Rng* rng;
    Md5* md5;
    std::vector<EventId>* live;
    std::uint64_t* budget;
    std::uint64_t label;
    void operator()() const {
      // Record execution (virtual time + label) into the digest.
      const std::int64_t t = sim->now().ns();
      md5->update(std::string_view(reinterpret_cast<const char*>(&t),
                                   sizeof(t)));
      md5->update(std::string_view(reinterpret_cast<const char*>(&label),
                                   sizeof(label)));
      // Reschedule-heavy behavior from inside events.
      for (int i = 0; i < 3 && *budget > 0; ++i) {
        --*budget;
        const std::int64_t delay = random_delay_ns(*rng) % 2'000'000'000;
        live->push_back(sim->schedule(
            SimTime::nanos(delay),
            Tick{sim, rng, md5, live, budget,
                 label * 31 + std::uint64_t(i)}));
      }
      while (!live->empty() && rng->uniform() < 0.5) {
        const std::size_t victim = rng->uniform_int(live->size());
        sim->cancel((*live)[victim]);
        live->erase(live->begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  };

  for (std::uint64_t i = 0; i < 64; ++i) {
    live.push_back(
        sim.schedule(SimTime::nanos(random_delay_ns(rng) % 1000),
                     Tick{&sim, &rng, &md5, &live, &budget, i}));
  }
  sim.run_until(SimTime::seconds(2.0));
  const auto digest = md5.digest();
  return to_hex(digest);
}

TEST(TimerWheelTest, ChurnHeavyScheduleIsBitReproducible) {
  for (std::uint64_t seed : {1ull, 0x5151ull, 0xabcdef99ull}) {
    SCOPED_TRACE(seed);
    const std::string first = churn_digest(seed);
    const std::string second = churn_digest(seed);
    EXPECT_EQ(first, second);
    EXPECT_NE(first, churn_digest(seed + 1));
  }
}

// ---------------------------------------------------------------------------
// Run-window edge cases: a harness drives the simulator in run_until()
// windows and schedules between them. These pin the wheel behaviours that
// slicing relies on: rescheduling an event across a window boundary,
// key-order ties at a far tick, and a window that stops short of a far
// event.
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, RescheduleAcrossWindowBoundaryFiresOnceAtNewTime) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  EventId id =
      sim.schedule_at(SimTime::micros(50),
                      [&fired, &sim] { fired.push_back(sim.now().ns()); });
  sim.schedule_at(SimTime::micros(40), [&] {
    // Move the 50us event past the end of the first run_until window.
    id = sim.reschedule(id, SimTime::micros(110),
                        [&fired, &sim] { fired.push_back(sim.now().ns()); });
  });

  sim.run_until(SimTime::micros(100));
  EXPECT_TRUE(fired.empty());  // the original 50us firing must be gone
  EXPECT_EQ(sim.now(), SimTime::micros(100));
  sim.run_until(SimTime::micros(200));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], SimTime::micros(150).ns());
}

TEST(TimerWheelTest, FarTickEventsTieByKey) {
  TimerWheel wheel;
  // T sits past 2^48 ns (~78 hours), on a high level that cascades down
  // several times before T pops. Its key says locus 2.
  const SimTime t = SimTime::nanos((1ll << 48) + 12345);
  wheel.insert_keyed(t, make_order_key(2, 1), /*locus=*/2, EventAction([] {}));

  // Drain an intermediate event so the cursor has moved on before the
  // second T event is scheduled.
  wheel.insert_keyed(SimTime::seconds(1.0), make_order_key(3, 1), 3,
                     EventAction([] {}));
  SimTime at;
  std::uint32_t locus;
  EventAction action;
  ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
  EXPECT_EQ(locus, 3u);

  // A later insert at exactly T with a smaller key (locus 1) sits behind
  // the first in the slot lists, yet must pop first: same tick, key order
  // decides.
  wheel.insert_keyed(t, make_order_key(1, 7), /*locus=*/1, EventAction([] {}));
  ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
  EXPECT_EQ(at, t);
  EXPECT_EQ(locus, 1u);
  ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
  EXPECT_EQ(at, t);
  EXPECT_EQ(locus, 2u);
  EXPECT_FALSE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
}

TEST(TimerWheelTest, RunStoppingShortOfFarEventKeepsTimeOrder) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  const auto record = [&fired, &sim] { fired.push_back(sim.now().ns()); };

  // Only a far event exists, and the run stops short of it.
  sim.schedule_at(SimTime::millis(10), record);
  sim.run_until(SimTime::micros(100));
  EXPECT_TRUE(fired.empty());

  // Events in the gap run first, in time order. The one at exactly the
  // stopped run's limit needs the run to have left the wheel's cursor at or
  // before that limit.
  sim.schedule_at(SimTime::micros(150), record);
  sim.schedule_at(SimTime::micros(100), record);
  sim.run_until(SimTime::millis(1));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], SimTime::micros(100).ns());
  EXPECT_EQ(fired[1], SimTime::micros(150).ns());

  sim.run_until(SimTime::millis(20));
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[2], SimTime::millis(10).ns());
}

TEST(TimerWheelTest, TopLevelEventsPopInTimeAndKeyOrder) {
  // From cursor 0, 2^62 ns and SimTime::max() differ from the cursor in
  // the top bit group, whose cycle spans all of time. Near events are
  // interleaved before, between and after them; same-tick ties at the top
  // must still pop in key order.
  TimerWheel wheel;
  struct Expected {
    std::int64_t at;
    std::uint32_t label;  // carried as the locus; ascending with the key
  };
  std::vector<Expected> expected;
  std::uint32_t label = 0;
  std::int64_t now = 0;
  const auto insert = [&](std::int64_t at) {
    ++label;
    wheel.insert_keyed(SimTime::nanos(at), make_order_key(0, label), label,
                       EventAction([] {}));
    expected.push_back(Expected{at, label});
  };
  const auto pop_and_check = [&] {
    std::sort(expected.begin(), expected.end(),
              [](const Expected& a, const Expected& b) {
                return a.at != b.at ? a.at < b.at : a.label < b.label;
              });
    SimTime at;
    std::uint32_t locus;
    EventAction action;
    ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
    EXPECT_EQ(at.ns(), expected.front().at);
    EXPECT_EQ(locus, expected.front().label);
    now = at.ns();
    expected.erase(expected.begin());
  };

  const std::int64_t top = 1ll << 62;
  const std::int64_t max = SimTime::max().ns();
  for (int round = 0; round < 4; ++round) {
    insert(now + 1 + round);
    insert(top + round / 2);
    insert(max - round / 2);
    insert(now + 1000 * (round + 1));
    pop_and_check();
    pop_and_check();
  }
  // Drain, scheduling a near event after each of the first pops at the
  // top level.
  int near_top = 0;
  while (!expected.empty()) {
    pop_and_check();
    if (now >= top && now < max - 3 && near_top++ < 8) insert(now + 3);
  }
  SimTime at;
  std::uint32_t locus;
  EventAction action;
  EXPECT_FALSE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
}

// ---------------------------------------------------------------------------
// Message pool: the copy-on-forward path recycles its shared blocks.
// ---------------------------------------------------------------------------

TEST(MessagePoolTest, ForwardPathReusesSharedBlocks) {
  using namespace svk::sip;
  Message base = Message::request(
      Method::kInvite, Uri("bob", "biloxi.example.com"),
      NameAddr{"", Uri("alice", "client.test"), "tag-a"},
      NameAddr{"", Uri("bob", "biloxi.example.com"), ""}, "pool-call-1",
      CSeq{1, Method::kInvite});
  base.push_via(Via{"SIP/2.0/UDP", "client.test", "z9hG4bK-pool-0"});
  MessagePtr shared = std::move(base).finish();

  // A sliding window of in-flight messages, as the proxy forward path
  // creates: each new hop's finish() is paired with an old hop's release.
  std::deque<MessagePtr> window;
  constexpr int kWarmup = 512;
  constexpr int kMeasured = 20'000;

  const auto& stats = message_pool_stats();
  std::uint64_t fresh_after_warmup = 0;
  std::uint64_t reuses_after_warmup = 0;
  // Forwarding never touches the call identity, so no clone copies it.
  const auto& identity = identity_pool_stats();
  const std::uint64_t identity_blocks = identity.fresh_allocs + identity.reuses;

  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    Message fwd = clone(*shared);
    fwd.push_via(Via{"SIP/2.0/UDP", "proxy0.test",
                     "z9hG4bK-pool-" + std::to_string(i)});
    fwd.decrement_max_forwards();
    window.push_back(std::move(fwd).finish());
    if (window.size() > 64) window.pop_front();
    if (i == kWarmup - 1) {
      fresh_after_warmup = stats.fresh_allocs;
      reuses_after_warmup = stats.reuses;
    }
  }

  // Steady state: every finish() was served from the freelist.
  EXPECT_EQ(stats.fresh_allocs, fresh_after_warmup);
  EXPECT_GE(stats.reuses, reuses_after_warmup + kMeasured);
  EXPECT_EQ(identity.fresh_allocs + identity.reuses, identity_blocks);
}

TEST(MessagePoolTest, MessageLayoutStaysWithinBudget) {
  // Transactions hold requests and final responses for Timer J/K, so the
  // by-value part of a message is what a stateful run's memory scales
  // with. The call identity lives in a shared block; Uri is two Tokens, the
  // user, the port and an (empty) parameter vector. A Via is two Tokens,
  // the inline branch (32 B) and the overload-control rate.
  EXPECT_LE(sizeof(svk::sip::Message), 512u);
  EXPECT_LE(sizeof(svk::sip::Uri), 80u);
  EXPECT_LE(sizeof(svk::sip::Via), 56u);
}

// ---------------------------------------------------------------------------
// Interning: hot Via strings stay bounded and compare correctly.
// ---------------------------------------------------------------------------

TEST(InternTest, RepeatedViaStringsDoNotGrowTheTable) {
  using namespace svk::sip;
  const std::size_t before = intern_table_size();
  for (int i = 0; i < 10'000; ++i) {
    const Via via{"SIP/2.0/UDP", "intern-host.test",
                  "z9hG4bK-" + std::to_string(i)};
    ASSERT_EQ(via.sent_by, "intern-host.test");
  }
  // One new host (plus possibly the protocol on the very first run): the
  // 10k distinct branches must not intern anything.
  EXPECT_LE(intern_table_size(), before + 2);

  // Whole calls: per-call users, tags, Call-IDs, branches and header values
  // stay strings. Only hosts, reason phrases and header names are interned,
  // and all of them by the first call.
  const Token caller_host{"intern-caller.test"};
  const Token callee_host{"intern-callee.test"};
  const Token proxy_host{"intern-proxy.test"};
  const Token mark{"X-Intern-Mark"};
  const auto call = [&](int i) {
    const std::string n = std::to_string(i);
    Message invite = Message::request(
        Method::kInvite, Uri("user" + n, callee_host),
        NameAddr{"", Uri("caller" + n, caller_host), "from-" + n},
        NameAddr{"", Uri("user" + n, callee_host), ""}, "call-" + n,
        CSeq{1, Method::kInvite});
    invite.push_via(Via{Via::udp(), caller_host, "z9hG4bK-c-" + n});
    invite.set_contact(NameAddr{"", Uri("caller" + n, caller_host), ""});
    const MessagePtr sent = std::move(invite).finish();

    Message fwd = clone(*sent);
    fwd.push_via(Via{Via::udp(), proxy_host, "z9hG4bK-p-" + n});
    fwd.set_header(mark, "proxy-" + n);
    fwd.set_request_uri(Uri("contact" + n, callee_host));
    const MessagePtr forwarded = std::move(fwd).finish();

    for (const int code : {100, 180, 200}) {
      Message response = Message::response(*forwarded, code);
      response.to().tag = "to-" + n;
      ASSERT_EQ(response.call_id(), "call-" + n);
    }
  };
  const std::size_t before_calls = intern_table_size();
  call(0);
  const std::size_t after_first = intern_table_size();
  std::set<std::string_view> reasons;
  for (int code = 100; code < 700; ++code) reasons.insert(reason_phrase(code));
  EXPECT_LE(after_first - before_calls, reasons.size() + 1);  // + "sip"
  for (int i = 1; i < 5'000; ++i) call(i);
  EXPECT_EQ(intern_table_size(), after_first);

  const Token a{"intern-host.test"};
  const Token b{std::string_view("intern-host.test")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, std::string_view("intern-host.test"));
  EXPECT_EQ(a.str(), "intern-host.test");
}

}  // namespace
}  // namespace svk::sim

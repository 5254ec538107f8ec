// Property-based tests: randomized inputs against invariants that must
// hold for any input — parser robustness, simulator ordering, CPU
// accounting conservation, LP bounds, controller share feasibility, and
// end-to-end determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "lp/state_model.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/simulator.hpp"
#include "sip/parser.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk {
namespace {

// ---------------------------------------------------------------------------
// Parser robustness: arbitrary bytes must never crash, and anything that
// parses must re-serialize to something that parses identically.
// ---------------------------------------------------------------------------

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.uniform_int(max_len + 1);
  std::string out(len, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.uniform_int(256));
  }
  return out;
}

TEST(ParserPropertyTest, ArbitraryBytesNeverCrash) {
  Rng rng(0xF00D);
  for (int i = 0; i < 2000; ++i) {
    const std::string junk = random_bytes(rng, 512);
    (void)sip::Parser::parse(junk);  // must not crash or hang
  }
}

sip::Message random_valid_message(Rng& rng, int i) {
  const bool is_request = rng.bernoulli(0.6);
  sip::Uri uri("user" + std::to_string(rng.uniform_int(100)),
               "host" + std::to_string(rng.uniform_int(10)) + ".example");
  sip::NameAddr from{"", sip::Uri("a", "x.example"),
                     "tag" + std::to_string(i)};
  sip::NameAddr to{"", sip::Uri("b", "y.example"),
                   rng.bernoulli(0.5) ? "remote" : ""};
  const sip::Method methods[] = {sip::Method::kInvite, sip::Method::kAck,
                                 sip::Method::kBye, sip::Method::kOptions};
  const sip::Method method = methods[rng.uniform_int(4)];
  sip::Message msg = sip::Message::request(
      method, uri, from, to, "call-" + std::to_string(i),
      sip::CSeq{static_cast<std::uint32_t>(1 + rng.uniform_int(100)),
                method});
  msg.push_via(sip::Via{"SIP/2.0/UDP", "h1.example",
                        "z9hG4bK-" + std::to_string(i)});
  if (rng.bernoulli(0.5)) {
    msg.push_via(sip::Via{"SIP/2.0/UDP", "h2.example",
                          "z9hG4bK-x" + std::to_string(i)});
  }
  if (rng.bernoulli(0.4)) {
    msg.set_header("X-Stateful", "p" + std::to_string(rng.uniform_int(4)));
  }
  if (rng.bernoulli(0.3)) {
    msg.mutable_routes().push_back(sip::Uri("", "route.example"));
  }
  if (rng.bernoulli(0.3)) msg.set_body(random_bytes(rng, 64));
  if (!is_request) {
    const int codes[] = {100, 180, 200, 404, 500};
    return sip::Message::response(msg, codes[rng.uniform_int(5)]);
  }
  return msg;
}

TEST(ParserPropertyTest, SerializeParseFixpoint) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 500; ++i) {
    sip::Message original = random_valid_message(rng, i);
    const std::string wire1 = original.to_wire();
    auto parsed1 = sip::Parser::parse(wire1);
    // Bodies are arbitrary bytes; embedded CR/LF may legitimately break
    // framing, in which case an error (not a crash) is acceptable.
    if (!parsed1.ok()) continue;
    const std::string wire2 = parsed1.value().to_wire();
    auto parsed2 = sip::Parser::parse(wire2);
    ASSERT_TRUE(parsed2.ok()) << wire2;
    EXPECT_EQ(wire2, parsed2.value().to_wire()) << "not a fixpoint";
  }
}

TEST(ParserPropertyTest, TruncationsNeverCrash) {
  Rng rng(0xCAFE);
  sip::Message msg = random_valid_message(rng, 1);
  const std::string wire = msg.to_wire();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    (void)sip::Parser::parse(std::string_view(wire).substr(0, cut));
  }
}

TEST(ParserPropertyTest, SingleByteCorruptionNeverCrashes) {
  Rng rng(0xD00D);
  const std::string wire = random_valid_message(rng, 2).to_wire();
  for (int i = 0; i < 1000; ++i) {
    std::string corrupted = wire;
    corrupted[rng.uniform_int(corrupted.size())] =
        static_cast<char>(rng.uniform_int(256));
    (void)sip::Parser::parse(corrupted);
  }
}

// ---------------------------------------------------------------------------
// Simulator: random schedules execute in nondecreasing time order, with
// FIFO among equal timestamps; cancellations remove exactly their target.
// ---------------------------------------------------------------------------

TEST(SimulatorPropertyTest, RandomScheduleExecutesInOrder) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    sim::Simulator sim;
    std::vector<std::pair<std::int64_t, std::uint64_t>> executed;
    std::uint64_t seq = 0;
    for (int i = 0; i < 200; ++i) {
      const auto at = SimTime::millis(
          static_cast<std::int64_t>(rng.uniform_int(50)));
      sim.schedule_at(at, [&executed, &seq, at] {
        executed.emplace_back(at.ns(), seq++);
      });
    }
    sim.run();
    ASSERT_EQ(executed.size(), 200u);
    for (std::size_t i = 1; i < executed.size(); ++i) {
      EXPECT_LE(executed[i - 1].first, executed[i].first);
    }
  }
}

TEST(SimulatorPropertyTest, CancellationRemovesExactlyTargets) {
  Rng rng(43);
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  int executed = 0;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(sim.schedule(
        SimTime::millis(static_cast<std::int64_t>(rng.uniform_int(100))),
        [&executed] { ++executed; }));
  }
  int cancelled = 0;
  for (const auto id : ids) {
    if (rng.bernoulli(0.3)) {
      sim.cancel(id);
      ++cancelled;
    }
  }
  sim.run();
  EXPECT_EQ(executed, 500 - cancelled);
}

// ---------------------------------------------------------------------------
// CPU queue: conservation — total busy time equals admitted cost/capacity;
// completions never before their submit time plus service.
// ---------------------------------------------------------------------------

TEST(CpuQueuePropertyTest, BusyTimeConservation) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    sim::Simulator sim;
    const double capacity = rng.uniform(10.0, 1000.0);
    sim::CpuQueue cpu(sim, sim::CpuQueueConfig{capacity,
                                               SimTime::seconds(1e6)});
    double submitted_cost = 0.0;
    for (int i = 0; i < 200; ++i) {
      const double at = rng.uniform(0.0, 10.0);
      const double cost = rng.uniform(0.1, 5.0);
      sim.schedule(SimTime::seconds(at), [&cpu, &submitted_cost, cost] {
        if (cpu.submit(cost, nullptr)) submitted_cost += cost;
      });
    }
    sim.run();
    const SimTime end = sim.now() + SimTime::seconds(1000.0);
    EXPECT_NEAR(cpu.busy_elapsed(end).to_seconds(),
                submitted_cost / capacity, 1e-6);
    EXPECT_NEAR(cpu.stats().total_cost, submitted_cost, 1e-9);
  }
}

TEST(CpuQueuePropertyTest, CompletionsRespectFifoOrder) {
  Rng rng(11);
  sim::Simulator sim;
  sim::CpuQueue cpu(sim, sim::CpuQueueConfig{10.0, SimTime::seconds(1e6)});
  std::vector<int> completions;
  for (int i = 0; i < 100; ++i) {
    const double cost = rng.uniform(0.1, 2.0);
    ASSERT_TRUE(cpu.submit(cost, [&completions, i] {
      completions.push_back(i);
    }));
  }
  sim.run();
  ASSERT_EQ(completions.size(), 100u);
  EXPECT_TRUE(std::is_sorted(completions.begin(), completions.end()));
}

// ---------------------------------------------------------------------------
// LP: randomized chains — optimum is bounded by [T_SF, T_SL], never
// decreases when a node's capacity grows, and equals the closed form.
// ---------------------------------------------------------------------------

TEST(LpPropertyTest, ChainOptimumBoundedAndMonotone) {
  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    const int n = 2 + static_cast<int>(rng.uniform_int(4));
    const double t_sf = rng.uniform(1000.0, 20000.0);
    const double t_sl = t_sf * rng.uniform(1.05, 2.0);

    auto solve_chain = [&](double boost_first) {
      lp::StateDistributionModel model;
      std::vector<lp::NodeIndex> nodes;
      for (int i = 0; i < n; ++i) {
        const double scale = (i == 0) ? boost_first : 1.0;
        nodes.push_back(model.add_node("s" + std::to_string(i),
                                       scale * t_sf, scale * t_sl));
      }
      for (int i = 0; i + 1 < n; ++i) {
        model.add_edge(nodes[i], nodes[i + 1]);
      }
      model.mark_entry(nodes.front());
      model.mark_exit(nodes.back());
      return model.solve();
    };

    const auto base = solve_chain(1.0);
    ASSERT_TRUE(base.optimal());
    EXPECT_GE(base.max_throughput, t_sf - 1e-6);
    EXPECT_LE(base.max_throughput, t_sl + 1e-6);

    const auto boosted = solve_chain(1.5);
    ASSERT_TRUE(boosted.optimal());
    EXPECT_GE(boosted.max_throughput, base.max_throughput - 1e-6);
  }
}

TEST(LpPropertyTest, StatefulCoverageExactAtOptimum) {
  // For any chain, the total stateful rate across nodes must equal the
  // admitted throughput (every call stateful exactly once).
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    const int n = 2 + static_cast<int>(rng.uniform_int(4));
    lp::StateDistributionModel model;
    std::vector<lp::NodeIndex> nodes;
    for (int i = 0; i < n; ++i) {
      const double t_sf = rng.uniform(5000.0, 15000.0);
      nodes.push_back(model.add_node("s" + std::to_string(i), t_sf,
                                     t_sf * rng.uniform(1.1, 1.6)));
    }
    for (int i = 0; i + 1 < n; ++i) model.add_edge(nodes[i], nodes[i + 1]);
    model.mark_entry(nodes.front());
    model.mark_exit(nodes.back());
    const auto result = model.solve();
    ASSERT_TRUE(result.optimal());
    double total_sf = 0.0;
    for (const double sf : result.node_stateful) total_sf += sf;
    EXPECT_NEAR(total_sf, result.max_throughput,
                1e-6 * std::max(1.0, result.max_throughput));
  }
}

// ---------------------------------------------------------------------------
// Controller: for random load mixes above threshold, the allocated shares
// (exit requirements + delegable shares) never exceed the feasible budget
// by more than the headroom the algorithm itself defines.
// ---------------------------------------------------------------------------

TEST(ControllerPropertyTest, SharesMatchFeasibilityConstant) {
  // For any traffic mix with no overloaded downstream paths, the computed
  // delegable shares must sum to (at most) Algorithm 2's feasibility
  // constant: c = u/(a-b) + sum_exits(fasf_z - a*t_z/(a-b)) minus
  // b*t_q/(a-b) per delegable path — i.e. the closed form of Eq. 9.
  // Clamping at zero may only reduce the sum.
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    core::ControllerConfig config;
    config.t_sf = 100.0;
    config.t_sl = 200.0;
    config.target_utilization = 1.0;
    config.utilization_feedback = false;
    core::Controller controller(config);
    const int num_paths = 1 + static_cast<int>(rng.uniform_int(4));
    std::vector<proxy::PathInfo> paths;
    for (int p = 0; p < num_paths; ++p) {
      paths.push_back(
          proxy::PathInfo{rng.bernoulli(0.7), Address{std::uint32_t(p)}});
    }
    paths[0].delegable = true;  // at least one delegable path
    controller.register_paths(paths);

    controller.on_tick(SimTime::seconds(0.0));
    std::vector<double> path_rate(num_paths, 0.0);
    std::vector<double> path_fasf(num_paths, 0.0);
    const int total = 120 + static_cast<int>(rng.uniform_int(140));
    for (int i = 0; i < total; ++i) {
      proxy::RequestContext ctx;
      ctx.path_index = rng.uniform_int(num_paths);
      ctx.delegable = paths[ctx.path_index].delegable;
      ctx.already_stateful = rng.bernoulli(0.2);
      path_rate[ctx.path_index] += 1.0;
      if (ctx.already_stateful) path_fasf[ctx.path_index] += 1.0;
      (void)controller.decide(ctx);
    }
    controller.on_tick(SimTime::seconds(1.0));
    if (controller.last_total_rate() <= config.t_sf) continue;

    const double alpha = 1.0 / config.t_sf;
    const double beta = 1.0 / config.t_sl;
    const double inv_ab = 1.0 / (alpha - beta);
    double expected_c = inv_ab;
    int delegable_count = 0;
    for (int p = 0; p < num_paths; ++p) {
      if (!paths[p].delegable) {
        expected_c += path_fasf[p] - alpha * path_rate[p] * inv_ab;
      } else {
        ++delegable_count;
      }
    }
    // Differential check: each delegable share must equal the clamped
    // closed form max(0, c/k - beta*t_q/(alpha-beta)) computed
    // independently from the traffic we generated. (Note the per-path
    // clamping means the *sum* may exceed the raw aggregate constant when
    // one path's raw share is negative — a property of the paper's
    // Algorithm 2 split that the utilization feedback compensates for at
    // runtime.)
    for (int p = 0; p < num_paths; ++p) {
      const auto& state = controller.paths()[p];
      if (!paths[p].delegable) {
        EXPECT_TRUE(std::isinf(state.myshare));  // exits take everything
        continue;
      }
      ASSERT_TRUE(std::isfinite(state.myshare)) << "round " << round;
      const double expected_share =
          std::max(0.0, expected_c / delegable_count -
                            beta * path_rate[p] * inv_ab);
      EXPECT_NEAR(state.myshare, expected_share, 1e-6)
          << "round " << round << " path " << p;
      // Realized fraction consistent with the share and the path's
      // not-yet-stateful traffic.
      const double nasf = std::max(path_rate[p] - path_fasf[p], 1e-9);
      EXPECT_NEAR(state.sf_fraction, std::min(1.0, expected_share / nasf),
                  1e-6)
          << "round " << round << " path " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: identical seeds give identical results.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  workload::ScenarioOptions options;
  options.policy = workload::PolicyKind::kServartuka;
  options.capacity_scale = {0.01, 0.01};
  options.controller_period = SimTime::seconds(0.5);
  options.poisson_arrivals = true;  // exercise the RNG paths too
  const auto factory = workload::series_chain(2, options);

  const auto a = workload::measure_point(factory, 105.0);
  const auto b = workload::measure_point(factory, 105.0);
  EXPECT_EQ(a.throughput_cps, b.throughput_cps);
  EXPECT_EQ(a.calls_failed, b.calls_failed);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.trying_received, b.trying_received);
  EXPECT_EQ(a.setup_ms_mean, b.setup_ms_mean);
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  workload::ScenarioOptions options;
  options.policy = workload::PolicyKind::kStaticAllStateful;
  options.capacity_scale = {0.01};
  options.poisson_arrivals = true;
  options.seed = 1;
  const auto a =
      workload::measure_point(workload::single_proxy(options), 80.0);
  options.seed = 2;
  const auto b =
      workload::measure_point(workload::single_proxy(options), 80.0);
  // Poisson arrivals with different seeds: some metric must differ.
  EXPECT_NE(a.setup_ms_mean, b.setup_ms_mean);
}

// ---------------------------------------------------------------------------
// Overload recovery: a load spike above saturation followed by a return to
// a sustainable rate must not leave the system stuck (no sticky storm).
// ---------------------------------------------------------------------------

TEST(RecoveryTest, SystemRecoversAfterLoadSpike) {
  workload::ScenarioOptions options;
  options.policy = workload::PolicyKind::kServartuka;
  options.capacity_scale = {0.01, 0.01};
  options.controller_period = SimTime::seconds(0.5);
  auto bed = workload::series_chain(2, options)(140.0);  // way over

  bed->start_load();
  bed->sim().run_until(SimTime::seconds(6.0));
  // Drop to a comfortable load.
  for (auto& uac : bed->uacs()) uac->stop();
  bed->uacs().clear();

  workload::UacConfig config;
  config.host = "uac9.recovery.client.net";
  config.first_hop = *bed->registry().resolve("proxy0.example.net");
  config.target_domain = "callee.example.net";
  config.call_rate_cps = 60.0;
  bed->add_uac(std::move(config));
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(12.0));

  const std::uint64_t completed_before = bed->total_completed_calls();
  const auto& uac = *bed->uacs().back();
  const std::uint64_t failed_before = uac.metrics().calls_failed;
  bed->sim().run_until(SimTime::seconds(17.0));
  const double tput = static_cast<double>(bed->total_completed_calls() -
                                          completed_before) /
                      5.0;
  EXPECT_NEAR(tput, 60.0, 4.0);  // all offered load completes again
  EXPECT_EQ(uac.metrics().calls_failed, failed_before);
}

}  // namespace
}  // namespace svk

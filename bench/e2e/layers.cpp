#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "dialog/dialog.hpp"
#include "proxy/location.hpp"
#include "proxy/proxy.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "sip/message_pool.hpp"
#include "txn/manager.hpp"

namespace svk::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kDomain = "callee.example.net";

LayerCounters& apply(LayerCounters& a, const LayerCounters& b, int sign) {
  const auto op = [sign](auto& x, auto y) { x = sign > 0 ? x + y : x - y; };
  op(a.events, b.events);
  op(a.scheduled, b.scheduled);
  op(a.cancelled, b.cancelled);
  op(a.overflow_inserts, b.overflow_inserts);
  op(a.datagrams, b.datagrams);
  op(a.dropped, b.dropped);
  op(a.cpu_admitted, b.cpu_admitted);
  op(a.cpu_rejected, b.cpu_rejected);
  op(a.cpu_cost, b.cpu_cost);
  op(a.msgs, b.msgs);
  op(a.pool_fresh, b.pool_fresh);
  op(a.txn_created, b.txn_created);
  op(a.dialog_created, b.dialog_created);
  op(a.proxy_msgs_in, b.proxy_msgs_in);
  op(a.proxy_stateful, b.proxy_stateful);
  op(a.proxy_stateless, b.proxy_stateless);
  op(a.absorbed, b.absorbed);
  op(a.rejected, b.rejected);
  op(a.location_queries, b.location_queries);
  op(a.core_routed, b.core_routed);
  op(a.retransmissions, b.retransmissions);
  op(a.calls_attempted, b.calls_attempted);
  op(a.calls_completed, b.calls_completed);
  return a;
}

bool is_controlled(proxy::ProxyServer& proxy) {
  return proxy.policy().tick_period() > SimTime{};
}

// --- Calibration ------------------------------------------------------------

constexpr std::size_t kBatch = 1024;

/// Median host ns per call of `op(i)` (i cycling through [0, kBatch)) over
/// five ~20 ms samples, after one warm-up pass.
template <typename Op>
double ns_per_op(Op&& op) {
  for (std::size_t i = 0; i < kBatch; ++i) op(i);
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    std::uint64_t ops = 0;
    const auto start = Clock::now();
    double elapsed_ns = 0.0;
    do {
      for (std::size_t i = 0; i < kBatch; ++i) op(i);
      ops += kBatch;
      elapsed_ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                            start)
                       .count();
    } while (elapsed_ns < 2e7);
    samples.push_back(elapsed_ns / static_cast<double>(ops));
  }
  std::nth_element(samples.begin(), samples.begin() + 2, samples.end());
  return samples[2];
}

/// What `op` costs beyond `bare`, which schedules and runs the same
/// simulator events and nothing else (those are charged at event_ns).
template <typename Op, typename Bare>
double ns_over(Op&& op, Bare&& bare) {
  return std::max(0.0, ns_per_op(op) - ns_per_op(bare));
}

/// Proxies on a call's path, in every workload.
constexpr int kHops = 2;

/// The request the last proxy of a call's path forwards: one Via per
/// element it already crossed, plus the stateful mark.
sip::Message make_invite(std::size_t id) {
  const std::string n = std::to_string(id);
  sip::Message msg = sip::Message::request(
      sip::Method::kInvite, sip::Uri("user0", std::string(kDomain)),
      sip::NameAddr{"", sip::Uri("caller", "uac0.main.client.net"), "ft-" + n},
      sip::NameAddr{"", sip::Uri("user0", std::string(kDomain)), ""},
      "call-" + n + "@uac0.main.client.net",
      sip::CSeq{1, sip::Method::kInvite});
  msg.push_via(sip::Via{"SIP/2.0/UDP", "uac0.main.client.net",
                        "z9hG4bK-uac-" + n});
  for (int h = 1; h < kHops; ++h) {
    msg.push_via(sip::Via{"SIP/2.0/UDP",
                          "proxy" + std::to_string(h - 1) + ".example.net",
                          "z9hG4bK-p" + std::to_string(h) + "-" + n});
  }
  msg.set_header("X-Stateful", "proxy0.example.net");
  return msg;
}

double calibrate_events(const CalibrationShape& shape) {
  sim::Simulator sim;
  // Self-rescheduling timers with delays from one link latency up to T1,
  // each firing also doing the run's share of schedule+cancel churn (RFC
  // 3261 timers armed and cancelled before they fire).
  struct Ticker {
    sim::Simulator* sim;
    SimTime period;
    double cancels;
    double owed = 0.0;
    void arm() {
      sim->schedule(period, [this] {
        for (owed += cancels; owed >= 1.0; owed -= 1.0) {
          sim->cancel(sim->schedule(SimTime::seconds(32), [] {}));
        }
        arm();
      });
    }
  };
  const std::size_t population =
      std::max<std::size_t>(1, shape.pending_events);
  std::vector<Ticker> tickers;
  tickers.reserve(population);
  for (std::size_t i = 0; i < population; ++i) {
    // The ns offset keeps tickers from firing on the same tick, which a
    // run's events rarely do (one tick's events are scanned linearly).
    const auto links = static_cast<std::int64_t>(1 + i % 8);
    const SimTime base = i % 16 == 15 ? SimTime::millis(500)
                                      : shape.link_latency * links;
    tickers.push_back(Ticker{&sim,
                             base + SimTime::nanos(static_cast<std::int64_t>(
                                        1 + i % 1009)),
                             shape.cancels_per_event});
  }
  for (Ticker& t : tickers) t.arm();
  return ns_per_op([&](std::size_t) { sim.step(); });
}

double calibrate_network(const CalibrationShape& shape) {
  sim::Simulator sim;
  proxy::SipNetwork network(sim, Rng(7));
  network.set_default_link(
      sim::LinkParams{shape.link_latency, SimTime{}, 0.0});
  const auto hosts =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, shape.hosts));
  std::uint64_t seen = 0;
  for (std::uint32_t h = 1; h <= hosts; ++h) {
    network.attach(Address{h}, [&seen](Address, const sip::MessagePtr& msg) {
      seen += msg->vias().size();
    });
  }
  const sip::MessagePtr msg = make_invite(0).finish();
  // Sends are spaced so about 64 datagrams are in flight, each landing on
  // its own tick as in a run.
  const SimTime spacing =
      SimTime::nanos(std::max<std::int64_t>(1, shape.link_latency.ns() / 64));
  return ns_over(
      [&](std::size_t i) {
        const auto k = static_cast<std::uint32_t>(i);
        network.send(Address{1 + k % hosts}, Address{1 + (k * 7 + 3) % hosts},
                     msg);
        sim.run_until(sim.now() + spacing);
      },
      [&](std::size_t) {
        sim.schedule(shape.link_latency,
                     [&seen, msg] { seen += msg->vias().size(); });
        sim.run_until(sim.now() + spacing);
      });
}

double calibrate_cpu(const CalibrationShape& shape) {
  sim::Simulator sim;
  sim::CpuQueue cpu(sim, sim::CpuQueueConfig{shape.cpu_capacity,
                                             SimTime::seconds(1e6)});
  // The completion captures what a proxy's forward action does (two
  // messages, a target, a flag), so std::function stores it the same way.
  const sip::MessagePtr msg = make_invite(0).finish();
  const sip::MessagePtr fwd = make_invite(1).finish();
  std::uint64_t done = 0;
  const auto completion = [&done, msg, fwd](std::size_t i) {
    return [&done, msg, fwd, target = Address{static_cast<std::uint32_t>(i)},
            stateful = (i & 1) != 0] {
      done += target.value() + (stateful ? 1 : 0) + msg->vias().size() +
              fwd->vias().size();
    };
  };
  // Time advances one service time per job, so the queue stays short.
  const SimTime service =
      SimTime::seconds(shape.cpu_cost_per_job / shape.cpu_capacity);
  return ns_over(
      [&](std::size_t i) {
        (void)cpu.submit(shape.cpu_cost_per_job, completion(i));
        sim.run_until(sim.now() + service);
      },
      [&](std::size_t i) {
        sim.schedule(service, std::function<void()>(completion(i)));
        sim.run_until(sim.now() + service);
      });
}

double calibrate_forward() {
  const sip::MessagePtr base = make_invite(0).finish();
  sip::BranchGenerator branches(3);
  // Messages stay alive for a while as they cross links.
  std::vector<sip::MessagePtr> in_flight(64);
  return ns_per_op([&](std::size_t i) {
    sip::Message fwd = sip::clone(*base);
    fwd.push_via(
        sip::Via{"SIP/2.0/UDP", "proxy1.example.net", branches.next()});
    fwd.decrement_max_forwards();
    in_flight[i % in_flight.size()] = std::move(fwd).finish();
  });
}

double calibrate_txn(const CalibrationShape& shape) {
  sim::Simulator sim;
  txn::TransactionManager txns(sim, txn::TimerConfig{});
  const txn::SendFn send = [](const sip::MessagePtr&) {};
  // The run's live population stays resident while a ring of fresh
  // INVITEs churns through create -> retransmission -> 2xx -> removal.
  std::vector<sip::MessagePtr> live;
  for (std::size_t i = 0; i < shape.txn_population; ++i) {
    live.push_back(make_invite(i).finish());
    (void)txns.create_server(live.back(), send, txn::ServerCallbacks{});
  }
  std::vector<sip::MessagePtr> ring;
  std::vector<sip::MessagePtr> oks;
  for (std::size_t i = 0; i < kBatch; ++i) {
    ring.push_back(make_invite(shape.txn_population + i).finish());
    oks.push_back(
        sip::Message::response(*ring.back(), sip::status::kOk).finish());
  }
  std::uint64_t removed = 0;
  return ns_over(
      [&](std::size_t i) {
        auto& txn = txns.create_server(ring[i], send, txn::ServerCallbacks{});
        (void)txns.dispatch(ring[i]);
        txn.respond(oks[i]);
        sim.run_until(sim.now());  // the removal event
      },
      [&](std::size_t) {
        sim.schedule(SimTime{}, [&removed] { ++removed; });
        sim.run_until(sim.now());
      });
}

double calibrate_dialog(const CalibrationShape& shape) {
  dialog::DialogManager dialogs;
  for (std::size_t i = 0; i < shape.dialog_population; ++i) {
    (void)dialogs.create_early(make_invite(i), SimTime{});
  }
  struct Call {
    sip::Message invite, ok, bye;
  };
  std::vector<Call> calls;
  for (std::size_t i = 0; i < kBatch; ++i) {
    sip::Message invite = make_invite(shape.dialog_population + i);
    sip::Message ok = sip::Message::response(invite, sip::status::kOk);
    ok.to().tag = "tt-" + std::to_string(i);
    sip::Message bye = sip::Message::request(
        sip::Method::kBye, invite.request_uri(), invite.from(), ok.to(),
        invite.call_id(), sip::CSeq{2, sip::Method::kBye});
    calls.push_back(Call{std::move(invite), std::move(ok), std::move(bye)});
  }
  return ns_per_op([&](std::size_t i) {
    const Call& c = calls[i];
    (void)dialogs.create_early(c.invite, SimTime{});
    (void)dialogs.confirm(c.ok);
    (void)dialogs.match(c.bye);
    dialogs.terminate(dialog::DialogProbe::make(c.bye.call_id(),
                                                c.bye.from().tag,
                                                c.bye.to().tag));
  });
}

double calibrate_location(const CalibrationShape& shape) {
  proxy::LocationService location;
  std::vector<sip::Uri> uris;
  for (int u = 0; u < std::max(1, shape.users); ++u) {
    const std::string user = "user" + std::to_string(u);
    location.register_binding(user + "@" + std::string(kDomain),
                              sip::Uri("", "uas0." + std::string(kDomain)));
    uris.emplace_back(user, std::string(kDomain));
  }
  std::uint64_t found = 0;
  return ns_per_op([&](std::size_t i) {
    found += location.lookup_uri(uris[i % uris.size()], SimTime{}).has_value();
  });
}

/// A controller on a chain entry: one delegable path.
void register_chain_path(core::Controller& controller) {
  controller.register_paths({proxy::PathInfo{true, Address{2}}});
}

double calibrate_decide() {
  core::Controller controller{core::ControllerConfig{}};
  register_chain_path(controller);
  proxy::RequestContext ctx;
  ctx.delegable = true;
  std::uint64_t stateful = 0;
  return ns_per_op([&](std::size_t i) {
    ctx.kind = i % 2 == 0 ? profile::MsgKind::kInvite : profile::MsgKind::kBye;
    stateful += controller.decide(ctx) == proxy::StateDecision::kStateful;
  });
}

double calibrate_tick() {
  core::Controller controller{core::ControllerConfig{}};
  register_chain_path(controller);
  SimTime now;
  return ns_per_op([&](std::size_t) {
    now += controller.tick_period();
    controller.on_tick(now);
  });
}

}  // namespace

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  return apply(*this, o, +1);
}

LayerCounters& LayerCounters::operator-=(const LayerCounters& o) {
  return apply(*this, o, -1);
}

void LayerLevels::raise_to(const LayerLevels& o) {
  pending_events = std::max(pending_events, o.pending_events);
  txn_live = std::max(txn_live, o.txn_live);
  txn_live_node = std::max(txn_live_node, o.txn_live_node);
  dialog_live = std::max(dialog_live, o.dialog_live);
  dialog_live_node = std::max(dialog_live_node, o.dialog_live_node);
}

LayerCounters read_counters(workload::TestBed& bed) {
  LayerCounters c;
  for (std::size_t s = 0; s < bed.shard_count(); ++s) {
    const sim::Simulator& sim = bed.shards().shard(s);
    c.events += sim.executed_count();
    c.scheduled += sim.event_stats().scheduled;
    c.cancelled += sim.event_stats().cancelled;
    c.overflow_inserts += sim.event_stats().overflow_inserts;
  }
  const sim::NetworkStats& net = bed.network().stats();
  c.datagrams = net.sent;
  c.dropped = net.dropped_loss + net.dropped_no_route + net.dropped_host_down +
              net.dropped_link_down + net.dropped_burst;
  const sip::MessagePoolStats& pool = sip::message_pool_stats();
  c.msgs = pool.fresh_allocs + pool.reuses;
  c.pool_fresh = pool.fresh_allocs;
  for (const auto& proxy : bed.proxies()) {
    const sim::CpuStats& cpu = proxy->cpu().stats();
    c.cpu_admitted += cpu.admitted;
    c.cpu_rejected += cpu.rejected;
    c.cpu_cost += cpu.total_cost;
    c.txn_created += proxy->transactions().created_count();
    c.dialog_created += proxy->dialogs().created_count();
    const proxy::ProxyStats& p = proxy->stats();
    c.proxy_msgs_in += p.requests_in + p.responses_in;
    c.proxy_stateful += p.forwarded_stateful;
    c.proxy_stateless += p.forwarded_stateless;
    c.absorbed += p.absorbed_retransmits;
    c.rejected += p.rejected_busy + p.rejected_503 + p.throttled_503;
    if (is_controlled(*proxy)) {
      c.core_routed += p.forwarded_stateful + p.forwarded_stateless;
    }
  }
  c.location_queries = bed.location()->query_count();
  for (const auto& uac : bed.uacs()) {
    c.retransmissions += uac->metrics().retransmissions;
  }
  c.calls_attempted = bed.total_attempted_calls();
  c.calls_completed = bed.total_completed_calls();
  return c;
}

LayerLevels read_levels(workload::TestBed& bed) {
  LayerLevels l;
  for (std::size_t s = 0; s < bed.shard_count(); ++s) {
    l.pending_events += bed.shards().shard(s).pending_count();
  }
  for (const auto& proxy : bed.proxies()) {
    const std::size_t txns = proxy->transactions().active_count();
    const std::size_t dialogs = proxy->dialogs().active_count();
    l.txn_live += txns;
    l.txn_live_node = std::max(l.txn_live_node, txns);
    l.dialog_live += dialogs;
    l.dialog_live_node = std::max(l.dialog_live_node, dialogs);
  }
  return l;
}

std::uint64_t controller_ticks(workload::TestBed& bed, SimTime horizon) {
  std::uint64_t ticks = 0;
  for (const auto& proxy : bed.proxies()) {
    if (is_controlled(*proxy)) {
      ticks += static_cast<std::uint64_t>(horizon.ns() /
                                          proxy->policy().tick_period().ns());
    }
  }
  return ticks;
}

LayerCosts calibrate(const CalibrationShape& shape) {
  LayerCosts c;
  c.event_ns = calibrate_events(shape);
  c.datagram_ns = calibrate_network(shape);
  c.submit_ns = calibrate_cpu(shape);
  c.forward_ns = calibrate_forward();
  c.txn_ns = calibrate_txn(shape);
  c.dialog_ns = calibrate_dialog(shape);
  c.lookup_ns = calibrate_location(shape);
  c.decide_ns = calibrate_decide();
  c.tick_ns = calibrate_tick();
  return c;
}

}  // namespace svk::e2e

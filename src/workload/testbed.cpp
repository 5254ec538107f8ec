#include "workload/testbed.hpp"

#include <cassert>
#include <utility>

namespace svk::workload {

TestBed::TestBed(std::uint64_t seed)
    : rng_(seed),
      network_(sim_, rng_.split(0xAE7)) {
  // 250us per hop one-way gives the ~1.5ms UAC<->UAS round trip the paper
  // reports on its Gigabit segment (3 hops each way).
  network_.set_default_link(sim::LinkParams{SimTime::micros(250),
                                            SimTime{}, 0.0});
}

Address TestBed::declare_host(const std::string& host) {
  if (const auto existing = registry_.resolve(host)) return *existing;
  const Address addr{next_address_++};
  registry_.add(host, addr);
  host_names_.emplace_back(addr.value(), host);
  if (obs_ != nullptr) obs_->tracer()->set_thread_name(addr.value(), host);
  return addr;
}

obs::Observability& TestBed::enable_observability() {
  if (obs_ == nullptr) {
    obs_ = std::make_unique<obs::Observability>();
    sim_.set_obs(obs_->sinks());
    for (const auto& [addr, host] : host_names_) {
      obs_->tracer()->set_thread_name(addr, host);
    }
  }
  return *obs_;
}

proxy::ProxyServer& TestBed::add_proxy(
    proxy::ProxyConfig config, proxy::RouteTable routes,
    std::unique_ptr<proxy::StatePolicy> policy) {
  config.address = declare_host(config.host);
  sim::LocusScope scope(sim_, config.address.value());
  proxies_.push_back(std::make_unique<proxy::ProxyServer>(
      sim_, network_, registry_, location_, std::move(routes),
      std::move(policy), std::move(config)));
  return *proxies_.back();
}

Uas& TestBed::add_uas(UasConfig config) {
  config.address = declare_host(config.host);
  sim::LocusScope scope(sim_, config.address.value());
  uases_.push_back(std::make_unique<Uas>(sim_, network_, config));
  return *uases_.back();
}

Uac& TestBed::add_uac(UacConfig config) {
  config.address = declare_host(config.host);
  sim::LocusScope scope(sim_, config.address.value());
  uacs_.push_back(std::make_unique<Uac>(
      sim_, network_, rng_.split(0x0AC + uacs_.size()),
      std::move(config)));
  return *uacs_.back();
}

void TestBed::register_users(const std::string& domain, int count,
                             const std::vector<std::string>& uas_hosts) {
  assert(!uas_hosts.empty());
  for (int i = 0; i < count; ++i) {
    const std::string aor = "user" + std::to_string(i) + "@" + domain;
    const std::string& uas_host = uas_hosts[i % uas_hosts.size()];
    location_.register_binding(aor, sip::Uri("", uas_host));
  }
}

void TestBed::install_faults(const fault::FaultPlan& plan) {
  if (plan.empty()) return;
  injector_ =
      std::make_unique<fault::FaultInjector>(sim_, network_.faults());
  for (const auto& [addr, host] : host_names_) {
    std::function<void(double)> set_cpu_factor;
    for (auto& proxy : proxies_) {
      if (proxy->config().host == host) {
        set_cpu_factor = [cpu = &proxy->cpu()](double factor) {
          cpu->set_capacity_factor(factor);
        };
        break;
      }
    }
    injector_->add_host(host, Address{addr}, std::move(set_cpu_factor));
  }
  injector_->arm(plan);
}

check::RunChecker& TestBed::enable_checking(check::CheckOptions options) {
  if (checker_ != nullptr) return *checker_;
  checker_ = std::make_unique<check::RunChecker>(sim_, options);
  for (const auto& [addr, host] : host_names_) {
    checker_->wire().register_host(Address{addr}, host);
  }
  txn::ConformanceTap* tap = &checker_->oracle();
  for (auto& proxy : proxies_) proxy->set_conformance_tap(tap);
  for (auto& uac : uacs_) uac->set_conformance_tap(tap);
  for (auto& uas : uases_) uas->set_conformance_tap(tap);
  check::WireChecker* wire = &checker_->wire();
  network_.set_send_tap(
      [wire](Address from, Address to, const sip::MessagePtr& msg) {
        wire->on_send(from, to, msg);
      });
  network_.set_deliver_tap(
      [wire](Address from, Address to, const sip::MessagePtr& msg) {
        wire->on_deliver(from, to, msg);
      });
  checker_->set_totals_source([this] {
    const BedStats s = stats();
    check::RunTotals totals;
    totals.double_stateful = s.proxy.double_stateful;
    totals.unmarked_invites = s.uas.unmarked_invites;
    totals.calls_attempted = s.uac.calls_attempted;
    totals.calls_terminal = s.uac.calls_completed + s.uac.calls_failed +
                            s.uac.calls_cancelled;
    for (const auto& proxy : proxies_) {
      totals.active_transactions += proxy->transactions().active_count();
      totals.active_dialogs += proxy->dialogs().active_count();
    }
    for (const auto& uac : uacs_) totals.open_uac_calls += uac->open_calls();
    return totals;
  });
  checker_->start();
  return *checker_;
}

void TestBed::start_load() {
  for (auto& uac : uacs_) {
    const std::uint32_t rank = uac->config().address.value();
    sim::LocusScope scope(sim_, rank);
    uac->start();
  }
}

void TestBed::stop_load() {
  for (auto& uac : uacs_) uac->stop();
}

std::uint64_t TestBed::total_completed_calls() const {
  std::uint64_t total = 0;
  for (const auto& uas : uases_) total += uas->metrics().calls_completed;
  return total;
}

std::uint64_t TestBed::total_attempted_calls() const {
  std::uint64_t total = 0;
  for (const auto& uac : uacs_) total += uac->metrics().calls_attempted;
  return total;
}

BedStats TestBed::stats() const {
  BedStats s;
  s.net = network_.stats();
  for (const auto& proxy : proxies_) {
    add_stats(s.proxy, proxy->stats());
    add_stats(s.cpu, proxy->cpu().stats());
    add_stats(s.txn, proxy->transactions().stats());
  }
  for (const auto& uac : uacs_) {
    add_stats(s.uac, uac->metrics());
    add_stats(s.txn, uac->transactions().stats());
  }
  for (const auto& uas : uases_) {
    add_stats(s.uas, uas->metrics());
    add_stats(s.txn, uas->transactions().stats());
  }
  return s;
}

JsonValue TestBed::metrics_json() const {
  const BedStats s = stats();
  JsonValue root = JsonValue::object();
  JsonValue& counters = root["counters"];
  counters = JsonValue::object();
  write_stats(counters, s.proxy);
  write_stats(counters, s.cpu);
  write_stats(counters, s.net);
  write_stats(counters, s.txn);
  write_stats(counters, s.uac);
  write_stats(counters, s.uas);
  counters["fault.applied"] =
      injector_ != nullptr ? injector_->applied() : std::uint64_t{0};
  JsonValue& gauges = root["gauges"];
  gauges = JsonValue::object();
  for (const auto& proxy : proxies_) {
    gauges["dialogs_live." + proxy->config().host] =
        static_cast<std::uint64_t>(proxy->dialogs().active_count());
  }
  return root;
}

}  // namespace svk::workload

// TestBed — assembles a complete simulated deployment: network, proxies
// with their policies and route tables, UAS farms, UAC load generators,
// user registrations. One TestBed = one experiment run (fresh simulator,
// deterministic for a given seed).
//
// Each component is constructed under a LocusScope of its host's address,
// so even setup-time events carry the owning host's identity (and thus its
// rank in the same-tick event order).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/run_checker.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/injector.hpp"
#include "obs/observability.hpp"
#include "proxy/host_registry.hpp"
#include "proxy/location.hpp"
#include "proxy/proxy.hpp"
#include "sim/simulator.hpp"
#include "workload/uac.hpp"
#include "workload/uas.hpp"

namespace svk::workload {

/// Factory for the per-proxy state policy, invoked once per proxy.
using PolicyFactory =
    std::function<std::unique_ptr<proxy::StatePolicy>(std::size_t proxy_idx)>;

class TestBed {
 public:
  explicit TestBed(std::uint64_t seed = 1);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }

  // Fixed-serial compatibility surface read by bench/e2e: a bed has exactly
  // one simulator. The next benchmark change deletes these three.
  [[nodiscard]] std::size_t shard_count() const { return 1; }
  [[nodiscard]] TestBed& shards() { return *this; }
  [[nodiscard]] sim::Simulator& shard(std::size_t) { return sim_; }

  [[nodiscard]] proxy::SipNetwork& network() { return network_; }
  [[nodiscard]] proxy::HostRegistry& registry() { return registry_; }
  [[nodiscard]] const std::shared_ptr<proxy::LocationService>& location()
      const {
    return location_;
  }

  /// Advances the bed through `until` (sim().run_until()).
  void run_until(SimTime until) { sim_.run_until(until); }
  [[nodiscard]] SimTime now() const { return sim_.now(); }

  /// Allocates an address and binds `host` to it in the registry.
  /// Addresses are handed out in declaration order and double as the
  /// hosts' locus ranks.
  Address declare_host(const std::string& host);

  /// Adds a proxy. The route table refers to hosts by name (declare them
  /// first or reference UAS/proxy hosts added earlier).
  proxy::ProxyServer& add_proxy(proxy::ProxyConfig config,
                                proxy::RouteTable routes,
                                std::unique_ptr<proxy::StatePolicy> policy);

  Uas& add_uas(UasConfig config);
  Uac& add_uac(UacConfig config);

  /// Registers `count` users user0..user{count-1}@domain, binding them
  /// round-robin to the given UAS hosts.
  void register_users(const std::string& domain, int count,
                      const std::vector<std::string>& uas_hosts);

  [[nodiscard]] std::vector<std::unique_ptr<proxy::ProxyServer>>& proxies() {
    return proxies_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<Uac>>& uacs() { return uacs_; }
  [[nodiscard]] std::vector<std::unique_ptr<Uas>>& uases() { return uases_; }

  /// Starts every UAC.
  void start_load();
  void stop_load();

  /// Sum of UAS completed calls (the paper's throughput counter).
  [[nodiscard]] std::uint64_t total_completed_calls() const;
  /// Sum of UAC attempted calls.
  [[nodiscard]] std::uint64_t total_attempted_calls() const;

  [[nodiscard]] Rng split_rng(std::uint64_t salt) {
    return rng_.split(salt);
  }

  /// Turns on observability for this bed (idempotent): creates the backend
  /// bundle, installs its sinks on the simulator, and names each declared
  /// host's trace timeline. Works before or after elements are added —
  /// components read the simulator's Sinks struct by stable address.
  obs::Observability& enable_observability(obs::Options options = {});

  /// Null when observability was never enabled.
  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }

  /// Arms a fault plan against this bed: every declared host becomes a
  /// valid fault target (proxies additionally expose their CPU for
  /// cpu_degrade events). Call after all elements are added and before the
  /// simulation runs; a no-op for an empty plan. Fault events are rank-0
  /// (harness) events, so they run before every same-tick host event.
  void install_faults(const fault::FaultPlan& plan);

  /// Null when no plan was installed.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }

  /// Turns on the conformance/invariant checking subsystem (src/check):
  /// taps every transaction manager with the RFC 3261 oracle, watches every
  /// datagram with the wire checker, and starts the periodic run-invariant
  /// sweep. Call AFTER all elements are added and before the simulation
  /// runs (idempotent; live transactions are not retrofitted). Checking is
  /// read-only: a checked run produces bit-identical results.
  check::RunChecker& enable_checking(check::CheckOptions options = {});

  /// Null when checking was never enabled.
  [[nodiscard]] check::RunChecker* checker() { return checker_.get(); }

 private:
  sim::Simulator sim_;
  Rng rng_;
  proxy::HostRegistry registry_;
  std::shared_ptr<proxy::LocationService> location_;
  proxy::SipNetwork network_;
  std::uint32_t next_address_{1};
  /// (address, host) pairs in declaration order, for trace thread names.
  std::vector<std::pair<std::uint32_t, std::string>> host_names_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Declared before the elements that hold raw tap pointers into it, so
  /// it outlives them on destruction.
  std::unique_ptr<check::RunChecker> checker_;
  std::vector<std::unique_ptr<proxy::ProxyServer>> proxies_;
  std::vector<std::unique_ptr<Uac>> uacs_;
  std::vector<std::unique_ptr<Uas>> uases_;
};

}  // namespace svk::workload

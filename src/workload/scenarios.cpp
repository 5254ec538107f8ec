#include "workload/scenarios.hpp"

#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "core/controller.hpp"

namespace svk::workload {
namespace {

constexpr std::string_view kCalleeDomain = "callee.example.net";
constexpr std::string_view kInternalDomain = "internal.example.net";
constexpr std::string_view kAuthUser = "alice";
constexpr std::string_view kAuthPassword = "secret";
constexpr std::string_view kSharedRealm = "example.net";
constexpr std::string_view kSharedNonce = "nonce-example.net";
/// Callee URIs registered per UAS domain: the paper's two.
constexpr int kNumUsers = 2;

double capacity_scale(const ScenarioOptions& options, std::size_t idx) {
  if (idx < options.capacity_scale.size()) {
    return options.capacity_scale[idx];
  }
  return 1.0;
}

std::unique_ptr<proxy::StatePolicy> policy_for(const ScenarioOptions& options,
                                               std::size_t idx,
                                               bool is_entry, bool is_exit) {
  switch (options.policy) {
    case PolicyKind::kStaticChainFirstStateful:
      return is_entry ? std::unique_ptr<proxy::StatePolicy>(
                            std::make_unique<proxy::AlwaysStateful>())
                      : std::make_unique<proxy::AlwaysStateless>();
    case PolicyKind::kStaticChainLastStateful:
      return is_exit ? std::unique_ptr<proxy::StatePolicy>(
                           std::make_unique<proxy::AlwaysStateful>())
                     : std::make_unique<proxy::AlwaysStateless>();
    case PolicyKind::kStaticAllStateful:
      return std::make_unique<proxy::AlwaysStateful>();
    case PolicyKind::kStaticAllStateless:
      return std::make_unique<proxy::AlwaysStateless>();
    case PolicyKind::kServartuka: {
      const double scale = capacity_scale(options, idx);
      auto config = core::ControllerConfig::from_call_rates(
          options.t_sf_cps * scale, options.t_sl_cps * scale,
          options.controller_period);
      if (options.controller_tweak) options.controller_tweak(config);
      return std::make_unique<core::Controller>(config);
    }
  }
  return std::make_unique<proxy::AlwaysStateful>();
}

proxy::ProxyConfig proxy_config(const ScenarioOptions& options,
                                std::size_t idx, const std::string& host,
                                bool authenticate) {
  proxy::ProxyConfig config;
  config.host = host;
  config.cpu_capacity =
      profile::CpuCostModel::kCalibratedCapacity * capacity_scale(options, idx);
  config.max_queue_delay = options.max_queue_delay;
  config.stateful_mode = options.stateful_mode;
  config.stateless_mode = options.stateless_mode;
  config.authenticate = authenticate;
  config.overload_signal_loss = options.overload_signal_loss;
  config.overload = options.overload_control;
  config.debug_predecrement_max_forwards =
      options.debug_predecrement_max_forwards;
  if (options.distribute_auth) {
    config.auth_scope = proxy::ProxyConfig::AuthScope::kWhenStateful;
    config.auth_realm = std::string(kSharedRealm);
    config.auth_nonce = std::string(kSharedNonce);
  }
  return config;
}

std::vector<std::string> add_uas_farm(TestBed& bed,
                                      const ScenarioOptions& options,
                                      std::string_view domain) {
  std::vector<std::string> hosts;
  for (int j = 0; j < options.num_uas; ++j) {
    const std::string host =
        "uas" + std::to_string(j) + "." + std::string(domain);
    bed.add_uas(UasConfig{host, Address{}, options.answer_delay});
    hosts.push_back(host);
  }
  bed.register_users(std::string(domain), kNumUsers, hosts);
  return hosts;
}

void add_uac_group(TestBed& bed, const ScenarioOptions& options,
                   std::string_view group, Address first_hop,
                   std::string_view target_domain, double total_rate,
                   const std::string& auth_realm,
                   const std::string& auth_nonce) {
  const int n = std::max(1, options.num_uacs);
  for (int k = 0; k < n; ++k) {
    UacConfig config;
    config.host =
        "uac" + std::to_string(k) + "." + std::string(group) + ".client.net";
    config.first_hop = first_hop;
    config.target_domain = std::string(target_domain);
    config.num_callees = kNumUsers;
    config.call_rate_cps = total_rate / n;
    config.poisson_arrivals = options.poisson_arrivals;
    config.max_forwards = options.uac_max_forwards;
    config.cancel_probability = options.cancel_probability;
    config.ring_abandon_after = options.ring_abandon_after;
    if (total_rate > 0.0) {
      config.start_offset =
          SimTime::seconds(static_cast<double>(k) / total_rate);
    }
    if (options.authenticate) {
      config.attach_credentials = true;
      config.auth_user = std::string(kAuthUser);
      config.auth_password = std::string(kAuthPassword);
      if (options.distribute_auth) {
        config.auth_realm = std::string(kSharedRealm);
        config.auth_nonce = std::string(kSharedNonce);
      } else {
        config.auth_realm = auth_realm;
        config.auth_nonce = auth_nonce;
      }
    }
    bed.add_uac(std::move(config));
  }
}

/// Registers the test user at an authenticating proxy.
void enroll_auth_user(proxy::ProxyServer& proxy) {
  proxy.authenticator().add_user(std::string(kAuthUser),
                                 std::string(kAuthPassword));
}

/// Builds the bed every factory starts from, applying the scenario-level
/// knobs that must precede host declaration (link latency).
std::unique_ptr<TestBed> make_bed(const ScenarioOptions& options) {
  assert(options.shards == 1);
  auto bed = std::make_unique<TestBed>(options.seed);
  if (options.link_latency > SimTime{}) {
    bed->network().set_default_link(
        sim::LinkParams{options.link_latency, SimTime{}, 0.0});
  }
  return bed;
}

}  // namespace

BedFactory single_proxy(ScenarioOptions options) {
  return series_chain(1, std::move(options));
}

BedFactory series_chain(int num_proxies, ScenarioOptions options) {
  assert(num_proxies >= 1);
  return [num_proxies, options](double offered_cps) {
    auto bed = make_bed(options);

    // Declare proxy hosts first so route tables can reference them.
    std::vector<std::string> hosts;
    std::vector<Address> addrs;
    for (int i = 0; i < num_proxies; ++i) {
      hosts.push_back("proxy" + std::to_string(i) + ".example.net");
      addrs.push_back(bed->declare_host(hosts.back()));
    }

    for (int i = 0; i < num_proxies; ++i) {
      proxy::RouteTable routes;
      if (i + 1 < num_proxies) {
        routes.add_route(std::string(kCalleeDomain), {addrs[i + 1]});
      } else {
        routes.add_local(std::string(kCalleeDomain));
      }
      const bool auth_here =
          options.authenticate && (options.distribute_auth || i == 0);
      auto& proxy = bed->add_proxy(
          proxy_config(options, i, hosts[i], auth_here), std::move(routes),
          policy_for(options, i, i == 0, i + 1 == num_proxies));
      if (auth_here) enroll_auth_user(proxy);
      if (i > 0) proxy.set_upstream_proxies({addrs[i - 1]});
    }

    add_uas_farm(*bed, options, kCalleeDomain);
    add_uac_group(*bed, options, "main", addrs[0], kCalleeDomain,
                  offered_cps, hosts[0], "nonce-" + hosts[0]);
    bed->install_faults(options.faults);
    return bed;
  };
}

BedFactory two_series_with_internal(double external_fraction,
                                    ScenarioOptions options) {
  assert(external_fraction >= 0.0 && external_fraction <= 1.0);
  return [external_fraction, options](double offered_cps) {
    auto bed = make_bed(options);

    const std::string host0 = "proxy0.example.net";
    const std::string host1 = "proxy1.example.net";
    const Address addr0 = bed->declare_host(host0);
    const Address addr1 = bed->declare_host(host1);

    proxy::RouteTable routes0;
    // Exit path for internal users, delegable path for external calls.
    routes0.add_local(std::string(kInternalDomain));
    routes0.add_route(std::string(kCalleeDomain), {addr1});
    const bool auth0 = options.authenticate;
    auto& p0 =
        bed->add_proxy(proxy_config(options, 0, host0, auth0),
                       std::move(routes0),
                       policy_for(options, 0, true, /*is_exit=*/false));
    if (auth0) enroll_auth_user(p0);

    proxy::RouteTable routes1;
    routes1.add_local(std::string(kCalleeDomain));
    auto& p1 = bed->add_proxy(proxy_config(options, 1, host1, false),
                              std::move(routes1),
                              policy_for(options, 1, false, true));
    p1.set_upstream_proxies({addr0});

    add_uas_farm(*bed, options, kCalleeDomain);
    add_uas_farm(*bed, options, kInternalDomain);

    add_uac_group(*bed, options, "ext", addr0, kCalleeDomain,
                  offered_cps * external_fraction, host0, "nonce-" + host0);
    add_uac_group(*bed, options, "int", addr0, kInternalDomain,
                  offered_cps * (1.0 - external_fraction), host0,
                  "nonce-" + host0);
    bed->install_faults(options.faults);
    return bed;
  };
}

BedFactory parallel_fork(ScenarioOptions options, double split_to_upper) {
  assert(split_to_upper > 0.0 && split_to_upper < 1.0 + 1e-9);
  return [options, split_to_upper](double offered_cps) {
    auto bed = make_bed(options);

    const std::string host0 = "proxy0.example.net";
    const std::string hostA = "proxya.example.net";
    const std::string hostB = "proxyb.example.net";
    const Address addr0 = bed->declare_host(host0);
    const Address addrA = bed->declare_host(hostA);
    const Address addrB = bed->declare_host(hostB);

    // Weighted round-robin across the fork: duplicate hops in tenths.
    const int upper_tenths = std::clamp(
        static_cast<int>(std::lround(split_to_upper * 10.0)), 1, 9);
    std::vector<Address> hops;
    for (int i = 0; i < upper_tenths; ++i) hops.push_back(addrA);
    for (int i = upper_tenths; i < 10; ++i) hops.push_back(addrB);

    proxy::RouteTable routes0;
    routes0.add_route(std::string(kCalleeDomain), hops);
    auto& p0 = bed->add_proxy(proxy_config(options, 0, host0,
                                           options.authenticate),
                              std::move(routes0),
                              policy_for(options, 0, true, false));
    if (options.authenticate) enroll_auth_user(p0);

    for (const auto& [host, addr] :
         {std::pair{hostA, addrA}, std::pair{hostB, addrB}}) {
      proxy::RouteTable routes;
      routes.add_local(std::string(kCalleeDomain));
      const std::size_t idx = (host == hostA) ? 1 : 2;
      auto& p = bed->add_proxy(proxy_config(options, idx, host, false),
                               std::move(routes),
                               policy_for(options, idx, false, true));
      p.set_upstream_proxies({addr0});
      (void)addr;
    }

    add_uas_farm(*bed, options, kCalleeDomain);
    add_uac_group(*bed, options, "main", addr0, kCalleeDomain, offered_cps,
                  host0, "nonce-" + host0);
    bed->install_faults(options.faults);
    return bed;
  };
}

BedFactory wide_fork(int num_exits, ScenarioOptions options) {
  assert(num_exits >= 2);
  return [num_exits, options](double offered_cps) {
    auto bed = make_bed(options);
    const std::string host0 = "lb.example.net";
    const Address addr0 = bed->declare_host(host0);
    std::vector<std::string> hosts;
    std::vector<Address> addrs;
    for (int i = 0; i < num_exits; ++i) {
      hosts.push_back("exit" + std::to_string(i) + ".example.net");
      addrs.push_back(bed->declare_host(hosts.back()));
    }
    // Pre-declare the endpoint boxes before any proxy exists: addresses
    // are locus ranks, so this order fixes the same-tick event order the
    // golden digests pin (declare_host is idempotent, so add_uas/add_uac
    // below reuse these addresses).
    for (int j = 0; j < options.num_uas; ++j) {
      bed->declare_host("uas" + std::to_string(j) + "." +
                        std::string(kCalleeDomain));
    }
    for (int k = 0; k < std::max(1, options.num_uacs); ++k) {
      bed->declare_host("uac" + std::to_string(k) + ".main.client.net");
    }

    proxy::RouteTable routes0;
    routes0.add_route(std::string(kCalleeDomain), addrs);
    auto& p0 = bed->add_proxy(
        proxy_config(options, 0, host0, options.authenticate),
        std::move(routes0), policy_for(options, 0, true, false));
    if (options.authenticate) enroll_auth_user(p0);

    for (int i = 0; i < num_exits; ++i) {
      proxy::RouteTable routes;
      routes.add_local(std::string(kCalleeDomain));
      const std::size_t idx = static_cast<std::size_t>(i) + 1;
      auto& p = bed->add_proxy(proxy_config(options, idx, hosts[i], false),
                               std::move(routes),
                               policy_for(options, idx, false, true));
      p.set_upstream_proxies({addr0});
    }

    add_uas_farm(*bed, options, kCalleeDomain);
    add_uac_group(*bed, options, "main", addr0, kCalleeDomain, offered_cps,
                  host0, "nonce-" + host0);
    bed->install_faults(options.faults);
    return bed;
  };
}

}  // namespace svk::workload

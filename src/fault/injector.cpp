#include "fault/injector.hpp"

#include <algorithm>

#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace svk::fault {
namespace {

/// Trace-event names must have static lifetime (the tracer stores views).
struct KindNames {
  std::string_view apply;
  std::string_view revert;
};

KindNames names_for(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return {"fault_node_crash", "fault_node_restart"};
    case FaultKind::kLinkDown: return {"fault_link_down", "fault_link_up"};
    case FaultKind::kPartition:
      return {"fault_partition", "fault_partition_heal"};
    case FaultKind::kLossBurst:
      return {"fault_loss_burst", "fault_loss_burst_end"};
    case FaultKind::kLatencyBurst:
      return {"fault_latency_burst", "fault_latency_burst_end"};
    case FaultKind::kCpuDegrade:
      return {"fault_cpu_degrade", "fault_cpu_restore"};
  }
  return {"fault", "fault_end"};
}

}  // namespace

void FaultInjector::add_host(const std::string& name, Address address,
                             std::function<void(double)> set_cpu_factor) {
  hosts_[name] = Host{address, std::move(set_cpu_factor)};
  all_addresses_.push_back(address);
}

const FaultInjector::Host* FaultInjector::resolve(const std::string& name,
                                                  const FaultEvent& event) {
  const auto it = hosts_.find(name);
  if (it == hosts_.end()) {
    errors_.push_back(std::string(to_string(event.kind)) +
                      ": unknown host \"" + name + "\"");
    return nullptr;
  }
  return &it->second;
}

void FaultInjector::arm(const FaultPlan& plan) {
  plan_ = plan;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    sim_.schedule_at(event.at, [this, i] {
      apply(plan_.events[i], /*revert=*/false);
    });
    if (event.duration > SimTime{}) {
      sim_.schedule_at(event.at + event.duration, [this, i] {
        apply(plan_.events[i], /*revert=*/true);
      });
    }
  }
}

void FaultInjector::record(const FaultEvent& event, bool revert,
                           std::uint32_t tid) {
  ++applied_;
  const obs::Sinks& obs = sim_.obs();
  if (obs.tracer != nullptr) {
    const KindNames names = names_for(event.kind);
    obs.tracer->instant(revert ? names.revert : names.apply, "fault",
                        sim_.now(), tid, "value", event.value,
                        "duration_s", event.duration.to_seconds());
  }
}

void FaultInjector::apply(const FaultEvent& event, bool revert) {
  switch (event.kind) {
    case FaultKind::kNodeCrash: {
      const Host* host = resolve(event.host, event);
      if (host == nullptr) return;
      net_.set_host_down(host->address, !revert);
      record(event, revert, host->address.value());
      return;
    }
    case FaultKind::kLinkDown: {
      const Host* a = resolve(event.host, event);
      const Host* b = resolve(event.peer, event);
      if (a == nullptr || b == nullptr) return;
      net_.set_link_down(a->address, b->address, !revert);
      if (event.bidirectional) {
        net_.set_link_down(b->address, a->address, !revert);
      }
      record(event, revert, a->address.value());
      return;
    }
    case FaultKind::kPartition: {
      std::vector<Address> isolated;
      for (const std::string& name : event.group) {
        if (const Host* host = resolve(name, event)) {
          isolated.push_back(host->address);
        }
      }
      if (isolated.empty()) return;
      for (const Address inside : isolated) {
        for (const Address other : all_addresses_) {
          if (std::find(isolated.begin(), isolated.end(), other) !=
              isolated.end()) {
            continue;
          }
          net_.set_link_down(inside, other, !revert);
          net_.set_link_down(other, inside, !revert);
        }
      }
      record(event, revert, isolated.front().value());
      return;
    }
    case FaultKind::kLossBurst:
    case FaultKind::kLatencyBurst: {
      // Empty endpoints = network-wide (the Address{0} wildcard). Bursts on
      // the same directed link must not overlap in time: reverting one
      // clears the link's whole disturbance entry.
      Address from{};
      Address to{};
      if (!event.host.empty() || !event.peer.empty()) {
        const Host* a = resolve(event.host, event);
        const Host* b = resolve(event.peer, event);
        if (a == nullptr || b == nullptr) return;
        from = a->address;
        to = b->address;
      }
      const auto set = [&](Address f, Address t) {
        if (revert) {
          net_.clear_disturbance(f, t);
          return;
        }
        sim::NetworkFaultState::Disturbance d;
        if (event.kind == FaultKind::kLossBurst) {
          d.extra_loss = event.value;
        } else {
          d.extra_latency = event.extra_latency;
        }
        net_.set_disturbance(f, t, d);
      };
      set(from, to);
      if (event.bidirectional && from != to) set(to, from);
      record(event, revert, from.value());
      return;
    }
    case FaultKind::kCpuDegrade: {
      const Host* host = resolve(event.host, event);
      if (host == nullptr) return;
      if (host->set_cpu_factor == nullptr) {
        errors_.push_back("cpu_degrade: host \"" + event.host +
                          "\" has no CPU");
        return;
      }
      host->set_cpu_factor(revert ? 1.0 : event.value);
      record(event, revert, host->address.value());
      return;
    }
  }
}

}  // namespace svk::fault

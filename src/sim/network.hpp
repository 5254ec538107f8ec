// Simulated datagram network.
//
// Models the testbed the paper used: hosts on a private Gigabit segment.
// Links add a fixed latency, optional uniform jitter, and optional Bernoulli
// loss. The payload type is a template parameter so the network layer stays
// independent of the SIP stack (instantiated with sip::MessagePtr by the
// transport layer).
//
// Fault injection (src/fault) layers on top through a NetworkFaultState
// overlay: crashed ("down") hosts, forced-down directed links, and
// loss/latency disturbances are consulted on every send without touching
// the configured LinkParams — reverting a fault restores the exact
// pre-fault behaviour, and a run with no faults installed draws the same
// random numbers as before the overlay existed.
//
// All per-send randomness (loss, burst loss, jitter) comes from a
// counter-based per-datagram generator — seeded by (network seed, link
// pair, per-pair datagram index) — instead of a shared draw-order-dependent
// stream, so a link's draws depend only on its own traffic, never on how
// sends from different hosts interleave.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace svk::sim {

/// Per-link transmission characteristics.
struct LinkParams {
  SimTime latency = SimTime::micros(100);  // one-way propagation
  SimTime jitter;                          // uniform extra in [0, jitter]
  double loss_probability = 0.0;           // i.i.d. per-datagram drop
};

/// Datagram delivery counters, per network.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;       // random link loss
  std::uint64_t dropped_no_route = 0;   // destination not attached or down
  std::uint64_t dropped_host_down = 0;  // sender crashed (fault injection)
  std::uint64_t dropped_link_down = 0;  // link forced down / partition
  std::uint64_t dropped_burst = 0;      // fault-injected extra loss
};

/// Mutable fault overlay consulted by Network::send. Non-templated so the
/// fault injector can manipulate it without knowing the payload type. All
/// state is reversible; an empty overlay is behaviourally invisible.
class NetworkFaultState {
 public:
  /// Extra Bernoulli loss and/or added one-way latency on a directed link.
  struct Disturbance {
    double extra_loss = 0.0;
    SimTime extra_latency;
  };

  /// Marks a host crashed: it neither transmits nor receives until cleared.
  void set_host_down(Address addr, bool down) {
    if (down) {
      down_hosts_.insert(addr.value());
    } else {
      down_hosts_.erase(addr.value());
    }
  }
  [[nodiscard]] bool host_down(Address addr) const {
    return down_hosts_.contains(addr.value());
  }

  /// Forces a directed link down (datagrams are dropped at send time).
  void set_link_down(Address from, Address to, bool down) {
    if (down) {
      down_links_.insert(key(from, to));
    } else {
      down_links_.erase(key(from, to));
    }
  }
  [[nodiscard]] bool link_down(Address from, Address to) const {
    return down_links_.contains(key(from, to));
  }

  /// Installs a loss/latency disturbance on a directed link. Address{0} for
  /// both endpoints addresses every link (network-wide burst).
  void set_disturbance(Address from, Address to, Disturbance d) {
    disturbances_[key(from, to)] = d;
  }
  void clear_disturbance(Address from, Address to) {
    disturbances_.erase(key(from, to));
  }
  /// The disturbance applying to (from, to): the exact pair wins over the
  /// network-wide wildcard; nullptr when neither exists.
  [[nodiscard]] const Disturbance* disturbance(Address from,
                                               Address to) const {
    if (disturbances_.empty()) return nullptr;
    if (const auto it = disturbances_.find(key(from, to));
        it != disturbances_.end()) {
      return &it->second;
    }
    if (const auto it = disturbances_.find(0); it != disturbances_.end()) {
      return &it->second;
    }
    return nullptr;
  }

  /// Fast-path guard: true when any fault is currently installed.
  [[nodiscard]] bool any() const {
    return !down_hosts_.empty() || !down_links_.empty() ||
           !disturbances_.empty();
  }

  static std::uint64_t key(Address from, Address to) {
    return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  }

 private:
  std::unordered_set<std::uint32_t> down_hosts_;
  std::unordered_set<std::uint64_t> down_links_;
  std::unordered_map<std::uint64_t, Disturbance> disturbances_;
};

/// A datagram network between attached hosts.
///
/// \tparam Payload  copyable handle delivered to the receiver (typically a
///                  shared_ptr to an immutable message)
template <typename Payload>
class Network {
 public:
  /// Receiver callback: (source address, payload).
  using Handler = std::function<void(Address, Payload)>;

  Network(Simulator& sim, Rng rng) : sim_(sim), seed_(rng.next()) {}

  /// Registers (or replaces) the host listening on `addr`.
  void attach(Address addr, Handler handler) {
    hosts_[addr] = std::move(handler);
  }

  void detach(Address addr) { hosts_.erase(addr); }

  /// Sets the default link characteristics used where no per-pair link is
  /// configured.
  void set_default_link(LinkParams params) {
    default_link_ = params;
    recompute_min_latency();
  }

  /// Sets a directed per-pair link override.
  void set_link(Address from, Address to, LinkParams params) {
    links_[NetworkFaultState::key(from, to)] = params;
    recompute_min_latency();
  }

  /// The smallest configured one-way latency (jitter and fault
  /// disturbances only ever add latency, so this stays a lower bound on
  /// any datagram's flight time under faults).
  [[nodiscard]] SimTime min_latency() const { return min_latency_; }

  /// The fault overlay (crashes, down links, bursts) — see NetworkFaultState.
  [[nodiscard]] NetworkFaultState& faults() { return faults_; }
  [[nodiscard]] const NetworkFaultState& faults() const { return faults_; }

  /// Read-only wire taps for the checking subsystem (src/check). The send
  /// tap fires for every send attempt, before fault/loss evaluation — a
  /// checker validates the *sender's* behaviour, which loss downstream must
  /// not excuse. The deliver tap fires only for datagrams actually handed
  /// to the destination's handler (a crashed destination sees nothing).
  /// Null (the default) disables the tap; taps must not mutate anything the
  /// simulation reads, so checked runs stay bit-identical.
  using WireTap = std::function<void(Address, Address, const Payload&)>;
  void set_send_tap(WireTap tap) { send_tap_ = std::move(tap); }
  void set_deliver_tap(WireTap tap) { deliver_tap_ = std::move(tap); }

  /// Sends a datagram. Delivery (or silent loss) happens after the link
  /// latency; UDP semantics, no delivery guarantee, no reordering within a
  /// link (FIFO scheduling preserves send order for equal latencies). Link
  /// and sender fault state is evaluated at send time, destination
  /// reachability at delivery time (a host that crashes mid-flight still
  /// loses the datagram).
  void send(Address from, Address to, Payload payload) {
    ++stats_.sent;
    if (send_tap_) send_tap_(from, to, payload);
    const NetworkFaultState::Disturbance* burst = nullptr;
    if (faults_.any()) {
      if (faults_.host_down(from)) {
        // A crashed host's CPU may still drain scheduled work; its output
        // goes nowhere.
        ++stats_.dropped_host_down;
        trace_drop("drop_tx_host_down", from, to);
        return;
      }
      if (faults_.link_down(from, to)) {
        ++stats_.dropped_link_down;
        trace_drop("drop_link_down", from, to);
        return;
      }
      burst = faults_.disturbance(from, to);
    }
    const LinkParams& link = link_for(from, to);
    SimTime delay = link.latency;
    const bool lossy = link.loss_probability > 0.0;
    const bool bursty = burst != nullptr && burst->extra_loss > 0.0;
    const bool jittery = link.jitter > SimTime{};
    if (lossy || bursty || jittery) {
      // Per-datagram counter-based generator: the draws depend only on the
      // link pair and this pair's datagram index, never on how sends from
      // other hosts interleave.
      const std::uint64_t pair = NetworkFaultState::key(from, to);
      Rng draw(datagram_seed(pair, ++pair_seq_[pair]));
      if (lossy && draw.bernoulli(link.loss_probability)) {
        ++stats_.dropped_loss;
        return;
      }
      if (bursty && draw.bernoulli(burst->extra_loss)) {
        ++stats_.dropped_burst;
        trace_drop("drop_loss_burst", from, to);
        return;
      }
      if (jittery) {
        delay += SimTime::nanos(static_cast<std::int64_t>(
            draw.uniform() * static_cast<double>(link.jitter.ns())));
      }
    }
    if (burst != nullptr) delay += burst->extra_latency;
    // The order key comes from the sender's locus (its identity and
    // history); the event executes under the receiver's locus.
    sim_.schedule_at_for(to.value(), sim_.now() + delay,
                         [this, from, to, payload = std::move(payload)]() {
                           deliver_now(from, to, payload);
                         });
  }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Datagrams that died because `dest` was unreachable (detached or
  /// crashed), so tests can assert *where* traffic was lost.
  [[nodiscard]] std::uint64_t no_route_drops(Address dest) const {
    const auto it = no_route_by_dest_.find(dest.value());
    return it != no_route_by_dest_.end() ? it->second : 0;
  }
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint64_t>&
  no_route_drops_by_dest() const {
    return no_route_by_dest_;
  }

 private:
  void deliver_now(Address from, Address to, const Payload& payload) {
    auto it = hosts_.find(to);
    if (it == hosts_.end() || faults_.host_down(to)) {
      ++stats_.dropped_no_route;
      ++no_route_by_dest_[to.value()];
      trace_drop("drop_no_route", from, to);
      return;
    }
    ++stats_.delivered;
    if (deliver_tap_) deliver_tap_(from, to, payload);
    it->second(from, payload);
  }

  void trace_drop(std::string_view name, Address from, Address to) {
    if (const obs::Sinks& obs = sim_.obs(); obs.tracer != nullptr) {
      obs.tracer->instant(name, "net", sim_.now(), to.value(), "from",
                          static_cast<double>(from.value()), "to",
                          static_cast<double>(to.value()));
    }
  }

  [[nodiscard]] std::uint64_t datagram_seed(std::uint64_t pair,
                                            std::uint64_t n) const {
    // Cheap mix; Rng's SplitMix64 seeding finishes the scrambling.
    // Delegates to the shared constant-pinned mixer: changing it would
    // change every loss/jitter draw and therefore every digest.
    return common::counter_seed(seed_, pair, n);
  }

  const LinkParams& link_for(Address from, Address to) const {
    auto it = links_.find(NetworkFaultState::key(from, to));
    return it != links_.end() ? it->second : default_link_;
  }

  void recompute_min_latency() {
    min_latency_ = default_link_.latency;
    for (const auto& [pair, params] : links_) {
      min_latency_ = std::min(min_latency_, params.latency);
    }
  }

  Simulator& sim_;
  std::uint64_t seed_;
  LinkParams default_link_;
  SimTime min_latency_ = LinkParams{}.latency;
  std::unordered_map<Address, Handler> hosts_;
  std::unordered_map<std::uint64_t, LinkParams> links_;
  NetworkFaultState faults_;
  NetworkStats stats_;
  std::unordered_map<std::uint32_t, std::uint64_t> no_route_by_dest_;
  /// Datagram index per directed link — the counter of the per-datagram
  /// RNG.
  std::unordered_map<std::uint64_t, std::uint64_t> pair_seq_;
  WireTap send_tap_;
  WireTap deliver_tap_;
};

}  // namespace svk::sim

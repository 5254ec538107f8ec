#include "check/wire.hpp"

#include <utility>

#include "sip/parser.hpp"

namespace svk::check {
namespace {

// A request loop that survives Max-Forwards would still be caught here:
// no legitimate path in the simulated topologies stacks more Vias than
// UAC -> proxy chain -> UAS allows.
constexpr std::size_t kMaxViaDepth = 8;

}  // namespace

void WireChecker::register_host(Address addr, std::string name) {
  hosts_[addr.value()] = std::move(name);
}

const std::string& WireChecker::host_name(Address addr) const {
  static const std::string kUnknown = "<unregistered>";
  const auto it = hosts_.find(addr.value());
  return it != hosts_.end() ? it->second : kUnknown;
}

std::string WireChecker::request_key(Address host, std::string_view call_id,
                                     std::uint32_t seq, sip::Method method) {
  std::string key = std::to_string(host.value());
  key += '|';
  key += call_id;
  key += '|';
  key += std::to_string(seq);
  key += '|';
  key += std::to_string(static_cast<int>(method));
  return key;
}

void WireChecker::check_cseq(const sip::Message& msg) {
  // ACK and CANCEL share the CSeq of the INVITE they refer to (9.1, 13.2.2.4)
  // and so are exempt from the monotonicity rule.
  const sip::Method method = msg.cseq().method;
  if (method == sip::Method::kAck || method == sip::Method::kCancel) return;
  std::string dialog = msg.call_id().str();
  dialog += '|';
  dialog += msg.from().tag;
  CseqHistory& hist = cseq_[dialog];
  const std::uint32_t seq = msg.cseq().seq;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(seq) << 8) |
      static_cast<std::uint64_t>(static_cast<int>(method));
  if (!hist.seen.insert(pair).second) return;  // same request, another hop
  if (seq < hist.max_seq) {
    log_.add("wire.cseq_regress", sim_.now(),
             "dialog " + dialog + ": new request " +
                 std::string(sip::to_string(method)) + " cseq " +
                 std::to_string(seq) + " after cseq " +
                 std::to_string(hist.max_seq) + " was already used");
  }
  if (seq > hist.max_seq) hist.max_seq = seq;
}

void WireChecker::check_round_trip(Address from, const sip::Message& msg) {
  const std::string text = msg.to_wire();
  const auto parsed = sip::Parser::parse(text);
  if (parsed.ok() && parsed.value().to_wire() == text) return;
  const std::string what =
      msg.is_request() ? std::string(sip::to_string(msg.method()))
                       : "response " + std::to_string(msg.status_code());
  log_.add("wire.round_trip", sim_.now(),
           host_name(from) + " sent " + what + " " + msg.call_id().str() +
               (parsed.ok() ? " whose wire text re-serializes differently "
                              "after a parse"
                            : " whose wire text does not parse: " +
                                  parsed.error().message));
}

void WireChecker::check_request_send(Address from, const sip::Message& msg) {
  const std::string& sender = host_name(from);
  if (msg.vias().empty()) {
    log_.add("wire.via_push", sim_.now(),
             sender + " sent " + std::string(sip::to_string(msg.method())) +
                 " " + msg.call_id().str() + " with an empty Via stack");
    return;
  }
  if (!(msg.top_via().sent_by == std::string_view(sender))) {
    log_.add("wire.via_push", sim_.now(),
             sender + " sent " + std::string(sip::to_string(msg.method())) +
                 " " + msg.call_id().str() + " whose top Via names " +
                 msg.top_via().sent_by.str() +
                 " — the sender must push its own Via");
  }
  if (msg.vias().size() > kMaxViaDepth) {
    log_.add("wire.via_depth", sim_.now(),
             sender + " sent " + msg.call_id().str() + " with " +
                 std::to_string(msg.vias().size()) +
                 " Vias — likely a forwarding loop");
  }
  if (msg.max_forwards() < 0) {
    log_.add("wire.mf_negative", sim_.now(),
             sender + " sent " + std::string(sip::to_string(msg.method())) +
                 " " + msg.call_id().str() + " with Max-Forwards " +
                 std::to_string(msg.max_forwards()));
  }
  // Conservation across a forwarding host. ACK and CANCEL are hop-by-hop
  // creations at a proxy (9.1, 17.1.1.3) and carry a fresh Max-Forwards.
  const sip::Method method = msg.cseq().method;
  if (msg.method() != sip::Method::kAck &&
      msg.method() != sip::Method::kCancel) {
    const auto it =
        open_.find(request_key(from, msg.call_id(), msg.cseq().seq, method));
    if (it != open_.end() &&
        msg.max_forwards() != it->second.mf_in - 1) {
      log_.add("wire.mf_balance", sim_.now(),
               sender + " forwarded " +
                   std::string(sip::to_string(msg.method())) + " " +
                   msg.call_id().str() + " with Max-Forwards " +
                   std::to_string(msg.max_forwards()) +
                   " but received it with " +
                   std::to_string(it->second.mf_in) +
                   " — a proxy decrements by exactly one");
    }
  }
  check_cseq(msg);
}

void WireChecker::check_response_send(Address from, Address to,
                                      const sip::Message& msg) {
  const std::string& sender = host_name(from);
  if (msg.vias().empty()) {
    log_.add("wire.via_pop", sim_.now(),
             sender + " sent response " + std::to_string(msg.status_code()) +
                 " " + msg.call_id().str() + " with an empty Via stack");
    return;
  }
  // 18.2.2: a response travels to the host named by its top Via; a hop that
  // forgot to pop its own Via sends the response to itself on paper.
  if (!(msg.top_via().sent_by == std::string_view(host_name(to)))) {
    log_.add("wire.via_pop", sim_.now(),
             sender + " sent response " + std::to_string(msg.status_code()) +
                 " " + msg.call_id().str() + " to " + host_name(to) +
                 " but its top Via names " + msg.top_via().sent_by.str());
  }
  const auto it = open_.find(
      request_key(from, msg.call_id(), msg.cseq().seq, msg.cseq().method));
  if (it == open_.end()) return;
  if (msg.status_code() == sip::status::kTooManyHops &&
      it->second.mf_in > 0) {
    log_.add("wire.premature_483", sim_.now(),
             sender + " answered 483 Too Many Hops for " + msg.call_id().str() +
                 " which arrived with Max-Forwards " +
                 std::to_string(it->second.mf_in) +
                 " — 483 is only correct for Max-Forwards 0 (16.3 step 4)");
  }
  if (sip::is_final(msg.status_code())) open_.erase(it);
}

void WireChecker::on_send(Address from, Address to,
                          const sip::MessagePtr& msg) {
  ++datagrams_seen_;
  check_round_trip(from, *msg);
  if (msg->is_request() && msg->method() == sip::Method::kOptions) return;
  if (msg->is_response() && msg->cseq().method == sip::Method::kOptions) {
    return;
  }
  if (msg->is_request()) {
    check_request_send(from, *msg);
  } else {
    check_response_send(from, to, *msg);
  }
}

void WireChecker::on_deliver(Address /*from*/, Address to,
                             const sip::MessagePtr& msg) {
  if (!msg->is_request()) return;
  // ACK has no response; OPTIONS is the overload-control feedback carrier.
  if (msg->method() == sip::Method::kAck ||
      msg->method() == sip::Method::kOptions) {
    return;
  }
  OpenRequest entry;
  entry.mf_in = msg->max_forwards();
  entry.context = host_name(to) + " received " +
                  std::string(sip::to_string(msg->method())) + " " +
                  msg->call_id().str() + " cseq " +
                  std::to_string(msg->cseq().seq) + " (Max-Forwards " +
                  std::to_string(msg->max_forwards()) + ")";
  open_[request_key(to, msg->call_id(), msg->cseq().seq,
                    msg->cseq().method)] = std::move(entry);
}

void WireChecker::at_drain(bool expect_all_answered) {
  if (!expect_all_answered) return;
  for (const auto& [key, entry] : open_) {
    log_.add("wire.unanswered_request", sim_.now(),
             entry.context + " and never answered it");
  }
}

}  // namespace svk::check

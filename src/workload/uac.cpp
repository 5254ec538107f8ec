#include "workload/uac.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "proxy/auth.hpp"

namespace svk::workload {
namespace {

/// Decimal digits of the widest call counter.
constexpr std::size_t kMaxCounterDigits =
    std::numeric_limits<std::uint64_t>::digits10 + 1;

}  // namespace

Uac::Uac(sim::Simulator& sim, proxy::SipNetwork& network, Rng rng,
         UacConfig config)
    : sim_(sim),
      network_(network),
      rng_(rng),
      config_(std::move(config)),
      host_token_(config_.host),
      domain_token_(config_.target_domain),
      txns_(sim),
      branches_(config_.address.value() | (1ULL << 32)),
      call_id_text_(config_.host + "-"),
      sdp_(std::string("v=0 o=sim c=IN IP4 0.0.0.0 m=audio 49170 RTP/AVP 0")) {
  // Room for the widest counter, so appending one never reallocates.
  call_id_text_.reserve(call_id_text_.size() + kMaxCounterDigits);
  network_.attach(config_.address,
                  [this](Address from, const sip::MessagePtr& msg) {
                    on_datagram(from, msg);
                  });
}

Uac::~Uac() {
  stop();
  network_.detach(config_.address);
}

void Uac::start() {
  if (running_) return;
  running_ = true;
  if (config_.start_offset > SimTime{}) {
    next_call_timer_ = sim_.schedule(config_.start_offset, [this] {
      if (running_) schedule_next_call();
    });
  } else {
    schedule_next_call();
  }
}

void Uac::stop() {
  running_ = false;
  sim_.cancel(next_call_timer_);
  next_call_timer_ = 0;
}

void Uac::schedule_next_call() {
  if (!running_ || config_.call_rate_cps <= 0.0) return;
  const double mean_gap = 1.0 / config_.call_rate_cps;
  const double gap = config_.poisson_arrivals
                         ? rng_.exponential(mean_gap)
                         : mean_gap;
  SimTime delay = SimTime::seconds(gap);
  // Retry-After backoff: never place a call before the deadline, but keep
  // the nominal pacing beyond it (the load resumes at the configured rate,
  // not in a burst of deferred calls).
  if (backoff_until_ > sim_.now() + delay) {
    delay = backoff_until_ - sim_.now();
  }
  next_call_timer_ = sim_.schedule(delay, [this] {
    place_call();
    schedule_next_call();
  });
}

void Uac::apply_retry_after(const sip::Message& response) {
  const auto header = response.header("Retry-After");
  if (!header) return;  // no directive: only the failed call is lost
  int delta_s = 0;
  std::from_chars(header->data(), header->data() + header->size(), delta_s);
  if (delta_s <= 0) return;
  const SimTime until =
      sim_.now() + SimTime::seconds(static_cast<double>(delta_s));
  if (until <= backoff_until_) return;  // already backing off longer
  backoff_until_ = until;
  ++metrics_.backoff_pauses;
  if (running_ && next_call_timer_ != 0) {
    // Push the pending next-call event out to the deadline.
    next_call_timer_ =
        sim_.reschedule(next_call_timer_, backoff_until_ - sim_.now(), [this] {
          place_call();
          schedule_next_call();
        });
  }
}

txn::SendFn Uac::sender() {
  return [this](const sip::MessagePtr& msg) {
    network_.send(config_.address, config_.first_hop, msg);
  };
}

void Uac::maybe_attach_credentials(sip::Message& request) const {
  if (!config_.attach_credentials) return;
  static const sip::Token name{proxy::kProxyAuthorizationHeader};
  request.set_header(
      name,
      proxy::DigestAuthenticator::make_authorization(
          config_.auth_user, config_.auth_realm, config_.auth_password,
          config_.auth_nonce,
          std::string(sip::to_string(request.method())),
          request.request_uri().to_string()));
}

void Uac::place_call() {
  ++metrics_.calls_attempted;
  const std::uint64_t n = ++call_counter_;

  const std::string callee =
      "user" + std::to_string(n % static_cast<std::uint64_t>(
                                      std::max(1, config_.num_callees)));
  // "<host>-<n>": the counter replaces the previous call's after the
  // prefix kept in call_id_text_, whose capacity already fits it.
  char digits[kMaxCounterDigits];
  const char* digits_end =
      std::to_chars(digits, digits + sizeof(digits), n).ptr;
  call_id_text_.resize(config_.host.size() + 1);
  call_id_text_.append(digits, static_cast<std::size_t>(digits_end - digits));
  const std::string from_tag = "uac" + std::to_string(n);

  sip::Uri request_uri(callee, domain_token_);
  sip::Message invite = sip::Message::request(
      sip::Method::kInvite, request_uri,
      sip::NameAddr{"", sip::Uri("caller", host_token_), from_tag},
      sip::NameAddr{"", request_uri, ""}, call_id_text_,
      sip::CSeq{1, sip::Method::kInvite});
  invite.push_via(sip::Via{sip::Via::udp(), host_token_, branches_.next()});
  invite.set_max_forwards(config_.max_forwards);
  invite.set_contact(sip::NameAddr{"", sip::Uri("caller", host_token_), ""});
  invite.set_body(sdp_);
  maybe_attach_credentials(invite);
  auto invite_ptr = std::move(invite).finish();

  // Call-IDs carry a per-UAC counter, so the table never holds this one.
  Call call;
  call.invite = invite_ptr;
  call.invite_sent = sim_.now();
  const common::SlabHandle handle = calls_.insert(std::move(call));

  txn::ClientCallbacks callbacks;
  callbacks.on_response = [this, handle](const sip::MessagePtr& msg) {
    on_invite_response(handle, msg);
  };
  callbacks.on_timeout = [this, handle] {
    ++metrics_.calls_failed;
    ++metrics_.calls_timed_out;
    calls_.erase(handle);
  };
  txns_.create_client(invite_ptr, sender(),
                      std::move(callbacks));

  if (config_.cancel_probability > 0.0 &&
      rng_.bernoulli(config_.cancel_probability)) {
    sim_.schedule(config_.ring_abandon_after,
                  [this, handle] { send_cancel(handle); });
  }
}

void Uac::send_cancel(common::SlabHandle handle) {
  Call* found = calls_.get(handle);
  if (found == nullptr || found->established) return;  // answered
  Call& call = *found;
  call.cancelled = true;

  // RFC 3261 9.1: the CANCEL copies the INVITE's request-URI, Via (same
  // branch!), From, To, Call-ID; CSeq keeps the number with method CANCEL.
  const sip::Message& invite = *call.invite;
  sip::Message cancel = sip::Message::request(
      sip::Method::kCancel, invite.request_uri(), invite.from(),
      invite.to(), invite.call_id(),
      sip::CSeq{invite.cseq().seq, sip::Method::kCancel});
  cancel.push_via(invite.top_via());
  txns_.create_client(std::move(cancel).finish(),
                      sender(),
                      txn::ClientCallbacks{});
}

void Uac::on_invite_response(common::SlabHandle handle,
                             const sip::MessagePtr& msg) {
  Call* found = calls_.get(handle);
  if (found == nullptr) return;
  Call& call = *found;
  const int code = msg->status_code();

  if (sip::is_provisional(code)) {
    if (code == sip::status::kTrying) ++metrics_.trying_received;
    if (code == sip::status::kRinging) ++metrics_.ringing_received;
    return;
  }
  if (sip::is_success(code)) {
    if (call.established) return;  // retransmitted 2xx, txn already fired
    call.established = true;
    ++metrics_.calls_established;
    const double setup_ms = (sim_.now() - call.invite_sent).to_millis();
    metrics_.setup_time_ms.add(setup_ms);
    if (const obs::Sinks& obs = sim_.obs(); obs.tracer != nullptr) {
      obs.tracer->counter("setup_ms", sim_.now(), config_.address.value(),
                          "ms", setup_ms);
    }

    call.to_tag = msg->to().tag;
    call.remote_target = msg->contact() ? msg->contact()->uri
                                        : call.invite->request_uri();
    // The dialog's route set is the 200's Record-Route reversed; one entry
    // reads the same either way, so the 200's block is shared as it is.
    const sip::RouteList& record_routes = msg->record_routes();
    if (record_routes.size() <= 1) {
      call.route_set = msg->shared_record_routes();
    } else {
      sip::RouteList reversed;
      reversed.assign(record_routes.rbegin(), record_routes.rend());
      call.route_set = sip::SharedRoutes(std::move(reversed));
    }
    send_ack(call, *msg);
    if (config_.hold_time > SimTime{}) {
      sim_.schedule(config_.hold_time, [this, handle] { send_bye(handle); });
    } else {
      send_bye(handle);
    }
    return;
  }
  // Final non-2xx: failed (or successfully abandoned) call; the
  // transaction sends the hop ACK itself.
  if (code == sip::status::kServerError) ++metrics_.busy_500_received;
  if (code == sip::status::kServiceUnavailable) {
    ++metrics_.busy_503_received;
    apply_retry_after(*msg);
  }
  if (call.cancelled) {
    ++metrics_.calls_cancelled;
  } else {
    ++metrics_.calls_failed;
    if (code == sip::status::kServiceUnavailable) ++metrics_.calls_rejected;
  }
  calls_.erase(handle);
}

void Uac::send_ack(Call& call, const sip::Message& ok) {
  sip::Message ack = sip::Message::request(
      sip::Method::kAck, call.remote_target, call.invite->from(), ok.to(),
      call.invite->call_id(), sip::CSeq{1, sip::Method::kAck});
  ack.push_via(sip::Via{sip::Via::udp(), host_token_, branches_.next()});
  ack.set_routes(call.route_set);
  auto ack_ptr = std::move(ack).finish();
  call.ack = ack_ptr;
  network_.send(config_.address, config_.first_hop, ack_ptr);
}

void Uac::send_bye(common::SlabHandle handle) {
  Call* found = calls_.get(handle);
  if (found == nullptr) return;
  Call& call = *found;

  sip::Message bye = sip::Message::request(
      sip::Method::kBye, call.remote_target, call.invite->from(),
      sip::NameAddr{"", sip::Uri(call.invite->request_uri().user(),
                                 domain_token_),
                    call.to_tag},
      call.invite->call_id(), sip::CSeq{2, sip::Method::kBye});
  bye.push_via(sip::Via{sip::Via::udp(), host_token_, branches_.next()});
  bye.set_max_forwards(config_.max_forwards);
  bye.set_routes(call.route_set);
  maybe_attach_credentials(bye);
  auto bye_ptr = std::move(bye).finish();

  txn::ClientCallbacks callbacks;
  callbacks.on_response = [this, handle](const sip::MessagePtr& msg) {
    if (!sip::is_final(msg->status_code())) return;
    if (sip::is_success(msg->status_code())) {
      ++metrics_.calls_completed;
    } else {
      if (msg->status_code() == sip::status::kServerError) {
        ++metrics_.busy_500_received;
      }
      if (msg->status_code() == sip::status::kServiceUnavailable) {
        ++metrics_.busy_503_received;
        apply_retry_after(*msg);
      }
      ++metrics_.calls_failed;
    }
    calls_.erase(handle);
  };
  callbacks.on_timeout = [this, handle] {
    ++metrics_.calls_failed;
    ++metrics_.calls_timed_out;
    calls_.erase(handle);
  };
  txns_.create_client(bye_ptr, sender(),
                      std::move(callbacks));
}

void Uac::on_datagram(Address from, const sip::MessagePtr& msg) {
  (void)from;
  if (msg->is_request()) return;  // UAC receives only responses

  const txn::Dispatch dispatch = txns_.dispatch(msg);
  if (dispatch != txn::Dispatch::kStrayResponse) return;

  // Stray 2xx to INVITE: the transaction has ended but the UAS is still
  // retransmitting its 200 (our ACK was lost or slow) — re-ACK.
  if (sip::is_success(msg->status_code()) &&
      msg->cseq().method == sip::Method::kInvite) {
    const Call* call = calls_.get(calls_.find(msg->call_id()));
    if (call != nullptr && call->ack) {
      network_.send(config_.address, config_.first_hop, call->ack);
    }
  }
}

}  // namespace svk::workload

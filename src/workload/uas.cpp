#include "workload/uas.hpp"

#include <algorithm>
#include <utility>

namespace svk::workload {

Uas::Uas(sim::Simulator& sim, proxy::SipNetwork& network, UasConfig config)
    : sim_(sim),
      network_(network),
      config_(std::move(config)),
      host_token_(config_.host),
      txns_(sim) {
  network_.attach(config_.address,
                  [this](Address from, const sip::MessagePtr& msg) {
                    on_datagram(from, msg);
                  });
}

Uas::~Uas() {
  pending_200_.for_each([this](Pending200& p) { sim_.cancel(p.timer); });
  ringing_.for_each([this](PendingAnswer& p) { sim_.cancel(p.timer); });
  network_.detach(config_.address);
}

void Uas::on_datagram(Address from, const sip::MessagePtr& msg) {
  // The UAS sends no request of its own, so no response is for it.
  if (!msg->is_request()) return;

  const txn::Dispatch dispatch = txns_.dispatch(msg);
  if (dispatch == txn::Dispatch::kHandledByServerTxn) return;

  switch (msg->method()) {
    case sip::Method::kInvite:
      handle_invite(from, msg);
      break;
    case sip::Method::kAck:
      handle_ack(msg);
      break;
    case sip::Method::kBye:
      handle_bye(from, msg);
      break;
    case sip::Method::kCancel:
      handle_cancel(from, msg);
      break;
    default:
      break;  // unsupported methods ignored
  }
}

void Uas::handle_invite(Address from, const sip::MessagePtr& msg) {
  // A retransmitted INVITE whose transaction already ended with our 200:
  // replay the 200 (we are still waiting for the ACK).
  if (const Pending200* pending =
          pending_200_.get(pending_200_.find(msg->call_id()))) {
    ++metrics_.retransmitted_200;
    network_.send(config_.address, pending->peer, pending->response);
    return;
  }

  ++metrics_.invites_received;
  if (!msg->header(proxy::kStatefulMarkHeader)) {
    ++metrics_.unmarked_invites;
  }
  txn::TxnHandle server_handle;
  auto& server_txn = txns_.create_server(
      msg,
      [this, from](const sip::MessagePtr& m) {
        network_.send(config_.address, from, m);
      },
      txn::ServerCallbacks{}, &server_handle);

  const std::string tag = "uas" + std::to_string(++tag_counter_);

  sip::Message ring = sip::Message::response(*msg, sip::status::kRinging);
  ring.to().tag = tag;
  server_txn.respond(std::move(ring).finish());

  PendingAnswer pending{msg, server_handle, tag, from};
  if (config_.answer_delay <= SimTime{}) {
    answer(std::move(pending));
    return;
  }
  // A second INVITE for a Call-ID that is still ringing (it came by
  // another branch) leaves the first entry in place; its answer event
  // still fires, as a no-op.
  const common::SlabHandle ringing =
      ringing_.find(msg->call_id()).null()
          ? ringing_.insert(std::move(pending))
          : common::SlabHandle{};
  const sim::EventId timer = sim_.schedule(
      config_.answer_delay, [this, ringing] { answer(ringing); });
  if (PendingAnswer* entry = ringing_.get(ringing)) entry->timer = timer;
}

void Uas::answer(common::SlabHandle ringing) {
  if (ringing_.get(ringing) == nullptr) return;  // cancelled, or a duplicate
  answer(ringing_.take(ringing));
}

void Uas::answer(PendingAnswer ringing) {
  sip::Message ok = sip::Message::response(*ringing.invite, sip::status::kOk);
  ok.to().tag = ringing.tag;
  ok.set_contact(sip::NameAddr{"", contact_uri(), ""});
  auto ok_ptr = std::move(ok).finish();
  if (auto* server_txn = txns_.find_server(ringing.server_txn)) {
    server_txn->respond(ok_ptr);
  } else {
    network_.send(config_.address, ringing.peer, ok_ptr);
  }

  // RFC 3261 13.3.1.4: the UAS core retransmits the 2xx until ACKed. A
  // retransmitted INVITE is answered from this entry, so no second call
  // with its Call-ID starts ringing while it exists.
  const SimTime interval = txn::TimerConfig::t1;
  const common::SlabHandle pending = pending_200_.insert(
      Pending200{ok_ptr, ringing.peer, 0, interval,
                 sim_.now() + 64 * txn::TimerConfig::t1});
  pending_200_.get(pending)->timer = sim_.schedule(
      interval, [this, pending] { retransmit_200(pending); });
}

void Uas::handle_cancel(Address from, const sip::MessagePtr& msg) {
  // The CANCEL gets its own transaction and an immediate 200 (RFC 3261
  // 9.2), whether or not it still catches the INVITE.
  auto& cancel_txn = txns_.create_server(
      msg,
      [this, from](const sip::MessagePtr& m) {
        network_.send(config_.address, from, m);
      },
      txn::ServerCallbacks{});
  cancel_txn.respond(
      sip::Message::response(*msg, sip::status::kOk).finish());

  const common::SlabHandle handle = ringing_.find(msg->call_id());
  if (handle.null()) return;  // too late: already answered
  PendingAnswer ringing = ringing_.take(handle);
  sim_.cancel(ringing.timer);
  ++metrics_.cancels_received;

  if (auto* invite_txn = txns_.find_server(ringing.server_txn)) {
    sip::Message terminated =
        sip::Message::response(*ringing.invite, 487);
    terminated.to().tag = ringing.tag;
    invite_txn->respond(std::move(terminated).finish());
  }
}

void Uas::retransmit_200(common::SlabHandle handle) {
  Pending200* pending = pending_200_.get(handle);
  if (pending == nullptr) return;
  if (sim_.now() >= pending->deadline) {
    pending_200_.erase(handle);  // give up; the call never got its ACK
    return;
  }
  ++metrics_.retransmitted_200;
  network_.send(config_.address, pending->peer, pending->response);
  pending->interval = std::min(2 * pending->interval, txn::TimerConfig::t2);
  pending->timer = sim_.schedule(
      pending->interval, [this, handle] { retransmit_200(handle); });
}

void Uas::handle_ack(const sip::MessagePtr& msg) {
  const common::SlabHandle handle = pending_200_.find(msg->call_id());
  const Pending200* pending = pending_200_.get(handle);
  if (pending == nullptr) return;  // duplicate ACK
  sim_.cancel(pending->timer);
  pending_200_.erase(handle);
  ++metrics_.calls_established;
}

void Uas::handle_bye(Address from, const sip::MessagePtr& msg) {
  ++metrics_.byes_received;
  auto& server_txn = txns_.create_server(
      msg,
      [this, from](const sip::MessagePtr& m) {
        network_.send(config_.address, from, m);
      },
      txn::ServerCallbacks{});
  server_txn.respond(
      sip::Message::response(*msg, sip::status::kOk).finish());
  ++metrics_.calls_completed;
}

}  // namespace svk::workload

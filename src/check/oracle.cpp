#include "check/oracle.hpp"

#include <algorithm>
#include <utility>

#include "txn/timers.hpp"

namespace svk::check {
namespace {

using txn::ClientEvent;
using txn::ClientState;
using txn::ServerEvent;
using txn::ServerState;
using Timers = txn::TimerConfig;

const char* client_event_name(ClientEvent event) {
  switch (event) {
    case ClientEvent::kStart: return "start";
    case ClientEvent::kRxResponse: return "rx_response";
    case ClientEvent::kTimerRetransmit: return "timer_rtx";
    case ClientEvent::kTimerTimeout: return "timer_timeout";
    case ClientEvent::kTimerLinger: return "timer_linger";
  }
  return "?";
}

const char* server_event_name(ServerEvent event) {
  switch (event) {
    case ServerEvent::kRxRequest: return "rx_request";
    case ServerEvent::kRespond: return "respond";
    case ServerEvent::kTimerRetransmit: return "timer_rtx";
    case ServerEvent::kTimerTimeout: return "timer_timeout";
    case ServerEvent::kTimerLinger: return "timer_linger";
  }
  return "?";
}

}  // namespace

std::string TxnOracle::describe(const sip::TransactionKey& key) {
  std::string out = "txn(";
  out += std::string(sip::to_string(key.method));
  out += " branch=";
  out += key.branch;
  out += " sent_by=";
  out += key.sent_by;
  out += ")";
  return out;
}

std::string TxnOracle::describe(const Send& send) {
  if (send.is_request) {
    return "req:" + std::string(sip::to_string(send.method));
  }
  return "rsp:" + std::to_string(send.code);
}

std::string TxnOracle::describe(ClientState state) {
  switch (state) {
    case ClientState::kCalling: return "Calling";
    case ClientState::kTrying: return "Trying";
    case ClientState::kProceeding: return "Proceeding";
    case ClientState::kCompleted: return "Completed";
    case ClientState::kTerminated: return "Terminated";
  }
  return "?";
}

std::string TxnOracle::describe(ServerState state) {
  switch (state) {
    case ServerState::kTrying: return "Trying";
    case ServerState::kProceeding: return "Proceeding";
    case ServerState::kCompleted: return "Completed";
    case ServerState::kConfirmed: return "Confirmed";
    case ServerState::kTerminated: return "Terminated";
  }
  return "?";
}

void TxnOracle::check_timer(const sip::TransactionKey& key,
                            const char* timer_name,
                            const std::optional<SimTime>& expected_at) {
  const SimTime now = sim_.now();
  if (!expected_at.has_value()) {
    log_.add("oracle.stale_timer", now,
             describe(key) + ": " + timer_name +
                 " fired but the RFC machine has no such timer armed");
    return;
  }
  if (*expected_at != now) {
    log_.add("oracle.timer", now,
             describe(key) + ": " + timer_name + " fired at " +
                 std::to_string(now.to_seconds()) + "s, RFC deadline is " +
                 std::to_string(expected_at->to_seconds()) + "s");
  }
}

template <typename Shadow>
void TxnOracle::check_sends(Shadow& shadow, const char* event_name) {
  if (shadow.actual != shadow.expected) {
    std::string detail = describe(shadow.key);
    detail += " event=";
    detail += event_name;
    detail += ": RFC requires sends [";
    for (const Send& s : shadow.expected) detail += describe(s) + " ";
    detail += "], production sent [";
    for (const Send& s : shadow.actual) detail += describe(s) + " ";
    detail += "]";
    log_.add("oracle.sends", sim_.now(), std::move(detail));
  }
  shadow.actual.clear();
  shadow.expected.clear();
}

// ---------------------------------------------------------------------------
// Client shadow (RFC 3261 17.1)
// ---------------------------------------------------------------------------

txn::TxnId TxnOracle::on_client_created(const sip::TransactionKey& key) {
  ClientShadow shadow;
  shadow.key = key;
  shadow.is_invite = key.method == sip::Method::kInvite;
  shadow.method = key.method;
  shadow.state =
      shadow.is_invite ? ClientState::kCalling : ClientState::kTrying;
  shadow.rtx_interval = Timers::t1;
  const txn::TxnId id = ++shadows_created_;
  clients_.emplace(id, std::move(shadow));
  return id;
}

void TxnOracle::on_client_send(txn::TxnId id, const sip::MessagePtr& msg) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) return;  // reported at the event notification
  Send send;
  send.is_request = msg->is_request();
  if (msg->is_request()) {
    send.method = msg->method();
  } else {
    send.code = msg->status_code();
  }
  it->second.actual.push_back(send);
}

void TxnOracle::client_rx_response(ClientShadow& shadow,
                                   const sip::Message& response) {
  const int code = response.status_code();
  const SimTime now = sim_.now();
  switch (shadow.state) {
    case ClientState::kCalling:
    case ClientState::kTrying:
    case ClientState::kProceeding:
      if (sip::is_provisional(code)) {
        shadow.state = ClientState::kProceeding;
        if (shadow.is_invite) {
          // 17.1.1.2: a provisional stops request retransmission; timer C
          // (16.6 step 11) bounds Proceeding and is refreshed on every
          // provisional, standing in for timer B from here on.
          shadow.rtx_at.reset();
          shadow.timeout_at = now + Timers::timer_c();
        }
        // Non-INVITE (17.1.2.2): retransmissions continue, now at T2 flat;
        // the interval change applies when the armed timer next fires.
        return;
      }
      // Final response.
      if (shadow.is_invite && !sip::is_success(code)) {
        // 17.1.1.3: ACK the non-2xx final, wait in Completed on timer D.
        shadow.expected.push_back(Send{true, sip::Method::kAck, 0});
        shadow.state = ClientState::kCompleted;
        shadow.rtx_at.reset();
        shadow.timeout_at.reset();
        shadow.linger_at = now + Timers::timer_d();
      } else if (shadow.is_invite) {
        // 2xx: the transaction terminates; ACK is the TU's job end-to-end.
        shadow.state = ClientState::kTerminated;
        shadow.rtx_at.reset();
        shadow.timeout_at.reset();
        shadow.linger_at.reset();
      } else {
        // 17.1.2.2: any final moves to Completed, absorb on timer K.
        shadow.state = ClientState::kCompleted;
        shadow.rtx_at.reset();
        shadow.timeout_at.reset();
        shadow.linger_at = now + Timers::timer_k();
      }
      return;
    case ClientState::kCompleted:
      // Retransmitted final: re-ACK non-2xx (17.1.1.2), absorb otherwise.
      if (shadow.is_invite && sip::is_final(code) && !sip::is_success(code)) {
        shadow.expected.push_back(Send{true, sip::Method::kAck, 0});
      }
      return;
    case ClientState::kTerminated:
      return;
  }
}

void TxnOracle::step_client(ClientShadow& shadow, ClientEvent event,
                            const sip::Message* msg) {
  const SimTime now = sim_.now();
  switch (event) {
    case ClientEvent::kStart:
      // 17.1.1.2 / 17.1.2.1: send the request, arm retransmission (timer
      // A doubling / timer E capped at T2) and the 64*T1 timeout (B / F).
      shadow.expected.push_back(Send{true, shadow.method, 0});
      shadow.rtx_interval = Timers::t1;
      shadow.rtx_at = now + shadow.rtx_interval;
      shadow.timeout_at =
          now + (shadow.is_invite ? Timers::timer_b() : Timers::timer_f());
      break;
    case ClientEvent::kRxResponse:
      client_rx_response(shadow, *msg);
      break;
    case ClientEvent::kTimerRetransmit: {
      check_timer(shadow.key, "timer A/E", shadow.rtx_at);
      const bool retransmitting =
          shadow.state == ClientState::kCalling ||
          shadow.state == ClientState::kTrying ||
          (!shadow.is_invite && shadow.state == ClientState::kProceeding);
      if (retransmitting) {
        shadow.expected.push_back(Send{true, shadow.method, 0});
        if (shadow.is_invite) {
          shadow.rtx_interval = 2 * shadow.rtx_interval;
        } else if (shadow.state == ClientState::kProceeding) {
          shadow.rtx_interval = Timers::t2;
        } else {
          shadow.rtx_interval = std::min(2 * shadow.rtx_interval, Timers::t2);
        }
        shadow.rtx_at = now + shadow.rtx_interval;
      } else {
        log_.add("oracle.stale_timer", now,
                 describe(shadow.key) +
                     ": retransmit timer fired in state " +
                     describe(shadow.state));
        shadow.rtx_at.reset();
      }
      break;
    }
    case ClientEvent::kTimerTimeout:
      check_timer(shadow.key, "timer B/F/C", shadow.timeout_at);
      shadow.timeout_at.reset();
      if (shadow.state == ClientState::kCalling ||
          shadow.state == ClientState::kTrying ||
          shadow.state == ClientState::kProceeding) {
        shadow.state = ClientState::kTerminated;
        shadow.rtx_at.reset();
        shadow.linger_at.reset();
      } else {
        log_.add("oracle.stale_timer", now,
                 describe(shadow.key) + ": timeout timer fired in state " +
                     describe(shadow.state));
      }
      break;
    case ClientEvent::kTimerLinger:
      check_timer(shadow.key, "timer D/K", shadow.linger_at);
      shadow.linger_at.reset();
      if (shadow.state == ClientState::kCompleted) {
        shadow.state = ClientState::kTerminated;
      } else {
        log_.add("oracle.stale_timer", now,
                 describe(shadow.key) + ": linger timer fired in state " +
                     describe(shadow.state));
      }
      break;
  }
}

void TxnOracle::on_client_event(txn::TxnId id, ClientEvent event,
                                ClientState state, const sip::Message* msg) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) {
    log_.add("oracle.untracked", sim_.now(),
             std::string("client event ") + client_event_name(event) +
                 " for a transaction the oracle never saw created");
    return;
  }
  ClientShadow& shadow = it->second;
  step_client(shadow, event, msg);
  check_sends(shadow, client_event_name(event));
  if (shadow.state != state) {
    log_.add("oracle.state", sim_.now(),
             describe(shadow.key) + " after " + client_event_name(event) +
                 ": RFC machine in " + describe(shadow.state) +
                 ", production in " + describe(state));
    // Track the production machine from here so one divergence does not
    // cascade into a report per subsequent event.
    shadow.state = state;
  }
  ++events_checked_;
}

void TxnOracle::on_client_removed(txn::TxnId id) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) return;
  if (it->second.state != ClientState::kTerminated) {
    log_.add("oracle.removed_live", sim_.now(),
             describe(it->second.key) + " removed from the table in state " +
                 describe(it->second.state));
  }
  clients_.erase(it);
}

// ---------------------------------------------------------------------------
// Server shadow (RFC 3261 17.2)
// ---------------------------------------------------------------------------

txn::TxnId TxnOracle::on_server_created(const sip::TransactionKey& key) {
  ServerShadow shadow;
  shadow.key = key;
  shadow.is_invite = key.method == sip::Method::kInvite;
  // 17.2.1: the INVITE server starts in Proceeding (the TU's 100 follows);
  // 17.2.2: the non-INVITE server starts in Trying.
  shadow.state =
      shadow.is_invite ? ServerState::kProceeding : ServerState::kTrying;
  shadow.rtx_interval = Timers::t1;
  const txn::TxnId id = ++shadows_created_;
  servers_.emplace(id, std::move(shadow));
  return id;
}

void TxnOracle::on_server_send(txn::TxnId id, const sip::MessagePtr& msg) {
  const auto it = servers_.find(id);
  if (it == servers_.end()) return;
  Send send;
  send.is_request = msg->is_request();
  if (msg->is_request()) {
    send.method = msg->method();
  } else {
    send.code = msg->status_code();
  }
  it->second.actual.push_back(send);
}

void TxnOracle::server_rx_request(ServerShadow& shadow,
                                  const sip::Message& request) {
  const SimTime now = sim_.now();
  if (shadow.state == ServerState::kTerminated) return;

  if (shadow.is_invite && request.method() == sip::Method::kAck) {
    if (shadow.state == ServerState::kCompleted) {
      // 17.2.1: ACK for our non-2xx final — Confirmed, absorb further ACKs
      // on timer I; response retransmission (G) and timer H stop.
      shadow.state = ServerState::kConfirmed;
      shadow.rtx_at.reset();
      shadow.timeout_at.reset();
      shadow.linger_at = now + Timers::timer_i();
    }
    // ACKs in any other state are absorbed silently.
    return;
  }

  // Request retransmission: absorbed; the latest response (if one was sent)
  // is replayed in Proceeding/Completed (17.2.1 / 17.2.2).
  if (shadow.has_last_response &&
      (shadow.state == ServerState::kProceeding ||
       shadow.state == ServerState::kCompleted)) {
    shadow.expected.push_back(Send{false, sip::Method::kInvite,
                                   shadow.last_code});
  }
}

void TxnOracle::server_respond(ServerShadow& shadow,
                               const sip::Message& response) {
  const SimTime now = sim_.now();
  if (shadow.state == ServerState::kTerminated) return;
  const int code = response.status_code();

  if (sip::is_provisional(code)) {
    // Only legal before a final; a provisional afterwards must be ignored
    // (regressing Completed would strand timers G/H/J — asserted here
    // because PR5 fixed exactly that bug).
    if (shadow.state != ServerState::kTrying &&
        shadow.state != ServerState::kProceeding) {
      return;
    }
    shadow.has_last_response = true;
    shadow.last_code = code;
    shadow.expected.push_back(Send{false, sip::Method::kInvite, code});
    shadow.state = ServerState::kProceeding;
    return;
  }
  // Duplicate final from the TU: first final wins, timers stay as armed.
  if (shadow.state != ServerState::kTrying &&
      shadow.state != ServerState::kProceeding) {
    return;
  }
  shadow.has_last_response = true;
  shadow.last_code = code;
  shadow.expected.push_back(Send{false, sip::Method::kInvite, code});
  if (shadow.is_invite) {
    if (sip::is_success(code)) {
      // 17.2.1: 2xx terminates the INVITE server transaction immediately.
      shadow.state = ServerState::kTerminated;
      shadow.rtx_at.reset();
      shadow.timeout_at.reset();
      shadow.linger_at.reset();
    } else {
      // Completed: retransmit the final on timer G, give up on timer H.
      shadow.state = ServerState::kCompleted;
      shadow.rtx_at = now + shadow.rtx_interval;
      shadow.timeout_at = now + Timers::timer_h();
    }
  } else {
    // 17.2.2: Completed, absorb retransmissions until timer J.
    shadow.state = ServerState::kCompleted;
    shadow.linger_at = now + Timers::timer_j();
  }
}

void TxnOracle::step_server(ServerShadow& shadow, ServerEvent event,
                            const sip::Message* msg) {
  const SimTime now = sim_.now();
  switch (event) {
    case ServerEvent::kRxRequest:
      server_rx_request(shadow, *msg);
      break;
    case ServerEvent::kRespond:
      server_respond(shadow, *msg);
      break;
    case ServerEvent::kTimerRetransmit:
      check_timer(shadow.key, "timer G", shadow.rtx_at);
      if (shadow.state == ServerState::kCompleted) {
        shadow.expected.push_back(Send{false, sip::Method::kInvite,
                                       shadow.last_code});
        shadow.rtx_interval = std::min(2 * shadow.rtx_interval, Timers::t2);
        shadow.rtx_at = now + shadow.rtx_interval;
      } else {
        log_.add("oracle.stale_timer", now,
                 describe(shadow.key) + ": timer G fired in state " +
                     describe(shadow.state));
        shadow.rtx_at.reset();
      }
      break;
    case ServerEvent::kTimerTimeout:
      check_timer(shadow.key, "timer H", shadow.timeout_at);
      shadow.timeout_at.reset();
      if (shadow.state == ServerState::kCompleted) {
        shadow.state = ServerState::kTerminated;
        shadow.rtx_at.reset();
        shadow.linger_at.reset();
      } else {
        log_.add("oracle.stale_timer", now,
                 describe(shadow.key) + ": timer H fired in state " +
                     describe(shadow.state));
      }
      break;
    case ServerEvent::kTimerLinger:
      check_timer(shadow.key, "timer I/J", shadow.linger_at);
      shadow.linger_at.reset();
      if (shadow.state == ServerState::kConfirmed ||
          shadow.state == ServerState::kCompleted) {
        shadow.state = ServerState::kTerminated;
      } else {
        log_.add("oracle.stale_timer", now,
                 describe(shadow.key) + ": linger timer fired in state " +
                     describe(shadow.state));
      }
      break;
  }
}

void TxnOracle::on_server_event(txn::TxnId id, ServerEvent event,
                                ServerState state, const sip::Message* msg) {
  const auto it = servers_.find(id);
  if (it == servers_.end()) {
    log_.add("oracle.untracked", sim_.now(),
             std::string("server event ") + server_event_name(event) +
                 " for a transaction the oracle never saw created");
    return;
  }
  ServerShadow& shadow = it->second;
  step_server(shadow, event, msg);
  check_sends(shadow, server_event_name(event));
  if (shadow.state != state) {
    log_.add("oracle.state", sim_.now(),
             describe(shadow.key) + " after " + server_event_name(event) +
                 ": RFC machine in " + describe(shadow.state) +
                 ", production in " + describe(state));
    shadow.state = state;
  }
  ++events_checked_;
}

void TxnOracle::on_server_removed(txn::TxnId id) {
  const auto it = servers_.find(id);
  if (it == servers_.end()) return;
  if (it->second.state != ServerState::kTerminated) {
    log_.add("oracle.removed_live", sim_.now(),
             describe(it->second.key) + " removed from the table in state " +
                 describe(it->second.state));
  }
  servers_.erase(it);
}

}  // namespace svk::check

// RFC 3261 section-17 conformance tests for the transaction layer: timer
// schedules, retransmission generation/absorption, state transitions and
// manager matching.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/manager.hpp"
#include "txn/transaction.hpp"

namespace svk::txn {
namespace {

using sip::CSeq;
using sip::Message;
using sip::MessagePtr;
using sip::Method;
using sip::NameAddr;
using sip::Uri;
using sip::Via;

// RFC 3261 Table 4, pinned against literals: the tests below compare run
// times against TimerConfig's formulas, so only these catch a wrong value.
static_assert(TimerConfig::t1 == SimTime::millis(500));
static_assert(TimerConfig::t2 == SimTime::seconds(4));
static_assert(TimerConfig::t4 == SimTime::seconds(5));
static_assert(TimerConfig::timer_a() == SimTime::millis(500));
static_assert(TimerConfig::timer_e() == SimTime::millis(500));
static_assert(TimerConfig::timer_g() == SimTime::millis(500));
static_assert(TimerConfig::timer_b() == SimTime::seconds(32));
static_assert(TimerConfig::timer_f() == SimTime::seconds(32));
static_assert(TimerConfig::timer_h() == SimTime::seconds(32));
static_assert(TimerConfig::timer_j() == SimTime::seconds(32));
static_assert(TimerConfig::timer_d() == SimTime::seconds(32));
static_assert(TimerConfig::timer_i() == SimTime::seconds(5));
static_assert(TimerConfig::timer_k() == SimTime::seconds(5));
static_assert(TimerConfig::timer_c() == SimTime::seconds(180));

MessagePtr make_request(Method method, const std::string& branch = "z9hG4bK-1",
                        const std::string& call_id = "call-1") {
  Message msg = Message::request(
      method, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.com"), "tag-a"},
      NameAddr{"", Uri("bob", "example.com"), ""}, call_id,
      CSeq{1, method});
  msg.push_via(Via{"SIP/2.0/UDP", "client.com", branch});
  return std::move(msg).finish();
}

MessagePtr make_response(const Message& req, int code) {
  return Message::response(req, code).finish();
}

/// Collects everything a transaction puts on the wire.
struct WireLog {
  std::vector<MessagePtr> sent;
  SendFn sender() {
    return [this](const MessagePtr& m) { sent.push_back(m); };
  }
  [[nodiscard]] int count_method(Method m) const {
    int n = 0;
    for (const auto& msg : sent) {
      if (msg->is_request() && msg->method() == m) ++n;
    }
    return n;
  }
  [[nodiscard]] int count_status(int code) const {
    int n = 0;
    for (const auto& msg : sent) {
      if (msg->is_response() && msg->status_code() == code) ++n;
    }
    return n;
  }
};

// ---------------------------------------------------------------------------
// The four RFC 3261 machines, built as runs build them: by a
// TransactionManager, fed through dispatch, and ending in a linger record
// where timer D, J or K starts. A fixture holds the machine's handle; it
// resolves to null once the machine has become a record or been removed.
// ---------------------------------------------------------------------------

class TxnFixture : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TransactionManager manager{sim};
  WireLog wire;
  TxnHandle handle;
};

// ---------------------------------------------------------------------------
// INVITE client transaction (17.1.1)
// ---------------------------------------------------------------------------

/// A client machine for `request()`, recording what it passes up.
class ClientFixture : public TxnFixture {
 protected:
  int timeouts = 0;
  std::vector<int> responses;

  [[nodiscard]] virtual const MessagePtr& request() const = 0;
  void start() {
    ClientCallbacks callbacks;
    callbacks.on_response = [this](const MessagePtr& m) {
      responses.push_back(m->status_code());
    };
    callbacks.on_timeout = [this] { ++timeouts; };
    manager.create_client(request(), wire.sender(), std::move(callbacks),
                          &handle);
  }
  [[nodiscard]] ClientTransaction* txn() {
    return manager.find_client(handle);
  }
  /// A response from the far end, as the element's dispatch sees it.
  Dispatch receive(int code) {
    return manager.dispatch(make_response(*request(), code));
  }
};

class InviteClientTest : public ClientFixture {
 protected:
  MessagePtr invite = make_request(Method::kInvite);
  [[nodiscard]] const MessagePtr& request() const override { return invite; }
};

TEST_F(InviteClientTest, SendsImmediately) {
  start();
  EXPECT_EQ(wire.count_method(Method::kInvite), 1);
  ASSERT_NE(txn(), nullptr);
  EXPECT_EQ(txn()->state(), ClientState::kCalling);
}

TEST_F(InviteClientTest, TimerADoublesRetransmissions) {
  start();
  // Retransmits at 0.5, 1.5, 3.5, 7.5, 15.5, 31.5s (then timer B at 32s).
  sim.run_until(SimTime::millis(400));
  EXPECT_EQ(wire.count_method(Method::kInvite), 1);
  sim.run_until(SimTime::millis(600));
  EXPECT_EQ(wire.count_method(Method::kInvite), 2);
  sim.run_until(SimTime::millis(1600));
  EXPECT_EQ(wire.count_method(Method::kInvite), 3);
  sim.run_until(SimTime::millis(3600));
  EXPECT_EQ(wire.count_method(Method::kInvite), 4);
  EXPECT_EQ(txn()->retransmit_count(), 3);
  EXPECT_EQ(manager.retransmit_count(), 3u);
}

TEST_F(InviteClientTest, TimerBTimesOut) {
  start();
  sim.run_until(SimTime::seconds(40.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(txn(), nullptr);  // Terminated and removed
  EXPECT_EQ(manager.active_count(), 0u);
  // 64*T1 = 32s window: initial + retransmits at 0.5,1.5,3.5,7.5,15.5,31.5.
  EXPECT_EQ(wire.count_method(Method::kInvite), 7);
}

TEST_F(InviteClientTest, ProvisionalStopsRetransmission) {
  start();
  EXPECT_EQ(receive(100), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(txn()->state(), ClientState::kProceeding);
  sim.run_until(SimTime::seconds(40.0));
  EXPECT_EQ(wire.count_method(Method::kInvite), 1);  // no retransmits
  EXPECT_EQ(timeouts, 0);                            // timer B cancelled
  EXPECT_EQ(responses, (std::vector<int>{100}));
}

TEST_F(InviteClientTest, TimerCTimesOutStuckProceeding) {
  // RFC 3261 16.6: a provisional cancels timer B, but the transaction may
  // not wait in Proceeding forever — timer C bounds it. A peer that sends
  // 180 and then crashes must not leak the transaction.
  start();
  receive(180);
  EXPECT_EQ(txn()->state(), ClientState::kProceeding);
  sim.run_until(SimTime::seconds(179.0));
  EXPECT_EQ(timeouts, 0);
  sim.run_until(SimTime::seconds(181.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(InviteClientTest, TimerCRefreshesOnEveryProvisional) {
  start();
  receive(100);
  sim.run_until(SimTime::seconds(100.0));
  receive(180);  // refresh
  sim.run_until(SimTime::seconds(250.0));
  EXPECT_EQ(timeouts, 0);  // clock restarted at 100s; fires at 280s
  sim.run_until(SimTime::seconds(281.0));
  EXPECT_EQ(timeouts, 1);
}

TEST_F(InviteClientTest, TimerCRefreshesAcrossManyProvisionals) {
  // A session-progress stream (media gateways send 183 every few seconds)
  // must never let timer C fire while provisionals keep arriving, and the
  // refreshes must reschedule the same timer rather than accumulate armed
  // events in the simulator.
  start();
  for (int i = 0; i < 12; ++i) {
    receive(183);
    sim.run_until(SimTime::seconds(20.0 * (i + 1)));
    EXPECT_EQ(timeouts, 0);
  }
  // Last refresh at 220s; timer C (180s) fires at 400s, exactly once.
  sim.run_until(SimTime::seconds(399.0));
  EXPECT_EQ(timeouts, 0);
  sim.run_until(SimTime::seconds(401.0));
  EXPECT_EQ(timeouts, 1);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteClientTest, DuplicateFinalAbsorbedWithoutTimerChurn) {
  // Retransmitted non-2xx finals in Completed are re-ACKed but must not
  // touch timer D: the transaction still terminates 32s after the FIRST
  // final, and draining leaves no armed events behind.
  start();
  receive(486);
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(receive(486), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(wire.count_method(Method::kAck), 2);
  EXPECT_EQ(responses, (std::vector<int>{486}));
  sim.run_until(SimTime::seconds(31.0));
  EXPECT_EQ(manager.active_count(), 1u);  // D not restarted early
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(manager.active_count(), 0u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteClientTest, FinalResponseCancelsTimerC) {
  start();
  receive(180);
  receive(200);
  EXPECT_EQ(txn()->state(), ClientState::kTerminated);
  sim.run_until(SimTime::seconds(200.0));
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(InviteClientTest, TwoHundredTerminatesImmediately) {
  start();
  receive(200);
  EXPECT_EQ(txn()->state(), ClientState::kTerminated);
  // No ACK from the transaction for 2xx (TU's responsibility), and no
  // linger: the removal is the next event.
  EXPECT_EQ(wire.count_method(Method::kAck), 0);
  EXPECT_EQ(manager.record_count(), 0u);
  sim.run();
  EXPECT_EQ(sim.now(), SimTime{});
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(InviteClientTest, NonTwoHundredAcksAndLingers) {
  start();
  EXPECT_EQ(receive(486), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(txn(), nullptr);  // Completed: a timer-D record
  EXPECT_EQ(manager.record_count(), 1u);
  EXPECT_EQ(wire.count_method(Method::kAck), 1);
  EXPECT_EQ(responses, (std::vector<int>{486}));

  // A retransmitted final is absorbed and re-ACKed, not passed up.
  EXPECT_EQ(receive(486), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(wire.count_method(Method::kAck), 2);
  EXPECT_EQ(responses, (std::vector<int>{486}));

  // Timer D fires at 32s.
  sim.run_until(SimTime::seconds(31.0));
  EXPECT_EQ(manager.active_count(), 1u);
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(receive(486), Dispatch::kStrayResponse);
}

TEST_F(InviteClientTest, AckForNon2xxCopiesBranch) {
  start();
  receive(404);
  ASSERT_EQ(wire.count_method(Method::kAck), 1);
  const MessagePtr& ack = wire.sent.back();
  EXPECT_EQ(ack->top_via().branch, invite->top_via().branch);
  EXPECT_EQ(ack->cseq().method, Method::kAck);
  EXPECT_EQ(ack->cseq().seq, invite->cseq().seq);
}

TEST_F(InviteClientTest, ProvisionalThen200) {
  start();
  receive(180);
  receive(200);
  EXPECT_EQ(responses, (std::vector<int>{180, 200}));
  EXPECT_EQ(txn()->state(), ClientState::kTerminated);
}

// ---------------------------------------------------------------------------
// Non-INVITE client transaction (17.1.2)
// ---------------------------------------------------------------------------

class NonInviteClientTest : public ClientFixture {
 protected:
  MessagePtr bye = make_request(Method::kBye);
  [[nodiscard]] const MessagePtr& request() const override { return bye; }
};

TEST_F(NonInviteClientTest, TimerECapsAtT2) {
  start();
  // E fires at 0.5, 1.5, 3.5, 7.5, then every 4s (T2 cap).
  sim.run_until(SimTime::seconds(11.6));
  // Sends: t=0, .5, 1.5, 3.5, 7.5, 11.5 -> 6 transmissions.
  EXPECT_EQ(wire.count_method(Method::kBye), 6);
}

TEST_F(NonInviteClientTest, TimerFTimesOutAt64T1) {
  start();
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(NonInviteClientTest, FinalEntersCompletedThenTimerK) {
  start();
  EXPECT_EQ(receive(200), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(txn(), nullptr);  // Completed: a timer-K record
  EXPECT_EQ(manager.record_count(), 1u);
  EXPECT_EQ(responses, (std::vector<int>{200}));
  // Timer K = T4 = 5s.
  sim.run_until(SimTime::seconds(4.9));
  EXPECT_EQ(manager.active_count(), 1u);
  sim.run_until(SimTime::seconds(5.5));
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(receive(200), Dispatch::kStrayResponse);
}

TEST_F(NonInviteClientTest, ProvisionalKeepsRetransmittingAtT2) {
  start();
  receive(100);
  EXPECT_EQ(txn()->state(), ClientState::kProceeding);
  const int before = wire.count_method(Method::kBye);
  sim.run_until(SimTime::seconds(9.0));
  EXPECT_GT(wire.count_method(Method::kBye), before);
  // Timeouts still possible in Proceeding for non-INVITE.
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(timeouts, 1);
}

TEST_F(NonInviteClientTest, RetransmittedFinalAbsorbed) {
  start();
  receive(200);
  EXPECT_EQ(receive(200), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(responses, (std::vector<int>{200}));
  EXPECT_EQ(wire.sent.size(), 1u);  // the BYE; nothing answers a 200
}

// ---------------------------------------------------------------------------
// INVITE server transaction (17.2.1)
// ---------------------------------------------------------------------------

class InviteServerTest : public TxnFixture {
 protected:
  int acks = 0;
  int timeouts = 0;

  MessagePtr invite = make_request(Method::kInvite);

  void start() {
    ServerCallbacks callbacks;
    callbacks.on_ack = [this](const MessagePtr&) { ++acks; };
    callbacks.on_timeout = [this] { ++timeouts; };
    manager.create_server(invite, wire.sender(), std::move(callbacks),
                          &handle);
  }
  [[nodiscard]] ServerTransaction* txn() {
    return manager.find_server(handle);
  }
  void respond(int code) { txn()->respond(make_response(*invite, code)); }

  MessagePtr ack_for(const MessagePtr& inv) {
    Message ack = Message::request(
        Method::kAck, inv->request_uri(), inv->from(), inv->to(),
        inv->call_id(), CSeq{1, Method::kAck});
    ack.push_via(inv->top_via());
    return std::move(ack).finish();
  }
};

TEST_F(InviteServerTest, StartsProceeding) {
  start();
  EXPECT_EQ(txn()->state(), ServerState::kProceeding);
}

TEST_F(InviteServerTest, RetransmittedInviteReplaysProvisional) {
  start();
  respond(100);
  EXPECT_EQ(wire.count_status(100), 1);
  EXPECT_EQ(manager.dispatch(invite), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(wire.count_status(100), 2);
  EXPECT_EQ(txn()->absorbed_count(), 1);
}

TEST_F(InviteServerTest, TwoHundredTerminatesImmediately) {
  start();
  respond(200);
  EXPECT_EQ(txn()->state(), ServerState::kTerminated);
  EXPECT_EQ(wire.count_status(200), 1);
  // No retransmissions from the transaction (UAS core owns 2xx rtx).
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(wire.count_status(200), 1);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(InviteServerTest, Non2xxRetransmitsOnTimerG) {
  start();
  respond(486);
  EXPECT_EQ(txn()->state(), ServerState::kCompleted);
  EXPECT_EQ(wire.count_status(486), 1);
  // G fires at 0.5, 1.5, 3.5, 7.5... (doubling, capped at T2).
  sim.run_until(SimTime::millis(1600));
  EXPECT_EQ(wire.count_status(486), 3);
}

TEST_F(InviteServerTest, AckStopsRetransmissionAndConfirms) {
  start();
  respond(486);
  sim.run_until(SimTime::millis(600));
  const int sent_so_far = wire.count_status(486);
  EXPECT_EQ(manager.dispatch(ack_for(invite)),
            Dispatch::kHandledByServerTxn);
  EXPECT_EQ(txn()->state(), ServerState::kConfirmed);
  EXPECT_EQ(acks, 1);
  sim.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(wire.count_status(486), sent_so_far);  // G stopped
  // Timer I (T4=5s) then terminates.
  sim.run_until(SimTime::seconds(6.0));
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(InviteServerTest, DuplicateAckAbsorbedInConfirmed) {
  start();
  respond(486);
  manager.dispatch(ack_for(invite));
  EXPECT_EQ(manager.dispatch(ack_for(invite)),
            Dispatch::kHandledByServerTxn);
  EXPECT_EQ(acks, 1);
}

TEST_F(InviteServerTest, DuplicateFinalDoesNotExtendTimerH) {
  // The TU answering twice (e.g. a forked context picking a second best
  // response after the first was already sent) must be a no-op: the wire
  // sees one status line, timer H still fires 64*T1 after the FIRST final
  // (not the second), and no orphaned timer event survives the drain.
  start();
  respond(486);
  sim.run_until(SimTime::seconds(10.0));
  respond(503);  // late second final: ignored
  EXPECT_EQ(wire.count_status(503), 0);
  EXPECT_EQ(txn()->state(), ServerState::kCompleted);
  sim.run_until(SimTime::seconds(31.9));
  EXPECT_EQ(timeouts, 0);
  sim.run_until(SimTime::seconds(32.1));  // H at 32s, not 42s
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteServerTest, ProvisionalAfterFinalIgnored) {
  // A straggling 180 arriving at the TU after the final must not drag the
  // transaction back to Proceeding: timer G would then retransmit the
  // provisional as "last response" and timers G/H would be stranded armed.
  start();
  respond(486);
  respond(180);  // late provisional: ignored
  EXPECT_EQ(wire.count_status(180), 0);
  EXPECT_EQ(txn()->state(), ServerState::kCompleted);
  // Timer G keeps retransmitting the *final*, not the provisional.
  sim.run_until(SimTime::millis(1600));
  EXPECT_EQ(wire.count_status(486), 3);
  EXPECT_EQ(wire.count_status(180), 0);
  sim.run();
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteServerTest, AckAbsorptionInConfirmedLeavesOnlyTimerI) {
  // Every duplicate ACK in Confirmed is absorbed without touching timer I;
  // the transaction still terminates at T4 and drains clean.
  start();
  respond(486);
  manager.dispatch(ack_for(invite));
  EXPECT_EQ(txn()->state(), ServerState::kConfirmed);
  for (int i = 0; i < 5; ++i) {
    sim.run_until(SimTime::millis(200 * (i + 1)));
    manager.dispatch(ack_for(invite));
  }
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(txn()->state(), ServerState::kConfirmed);
  sim.run_until(SimTime::seconds(6.0));  // I = T4 = 5s after first ACK
  EXPECT_EQ(manager.active_count(), 0u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteServerTest, TimerHTimesOutWithoutAck) {
  start();
  respond(486);
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
}

// ---------------------------------------------------------------------------
// Non-INVITE server transaction (17.2.2)
// ---------------------------------------------------------------------------

class NonInviteServerTest : public TxnFixture {
 protected:
  MessagePtr bye = make_request(Method::kBye);

  void start() {
    manager.create_server(bye, wire.sender(), ServerCallbacks{}, &handle);
  }
  [[nodiscard]] ServerTransaction* txn() {
    return manager.find_server(handle);
  }
  void respond(int code) { txn()->respond(make_response(*bye, code)); }
};

TEST_F(NonInviteServerTest, StartsTrying) {
  start();
  EXPECT_EQ(txn()->state(), ServerState::kTrying);
}

TEST_F(NonInviteServerTest, RetransmissionInTryingAbsorbedSilently) {
  start();
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(txn()->absorbed_count(), 1);
  EXPECT_TRUE(wire.sent.empty());  // nothing to replay yet
}

TEST_F(NonInviteServerTest, RetransmissionInCompletedReplaysFinal) {
  start();
  respond(200);
  EXPECT_EQ(txn(), nullptr);  // Completed: a timer-J record
  EXPECT_EQ(manager.record_count(), 1u);
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(wire.count_status(200), 2);
}

TEST_F(NonInviteServerTest, TimerJTerminates) {
  start();
  respond(200);
  sim.run_until(SimTime::seconds(31.9));
  EXPECT_EQ(manager.active_count(), 1u);
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kNewRequest);
}

TEST_F(NonInviteServerTest, DuplicateFinalDoesNotExtendTimerJ) {
  // The first final retires the machine, so the TU's handle no longer
  // reaches it: a second final cannot be sent, one 200 is on the wire,
  // timer J still fires 64*T1 after the first final, and the drain leaves
  // no events.
  start();
  respond(200);
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(txn(), nullptr);
  EXPECT_EQ(wire.count_status(503), 0);
  EXPECT_EQ(wire.count_status(200), 1);
  sim.run_until(SimTime::seconds(31.9));
  EXPECT_EQ(manager.record_count(), 1u);  // J at 32s, not 42s
  sim.run_until(SimTime::seconds(32.1));
  EXPECT_EQ(manager.active_count(), 0u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(NonInviteServerTest, ProvisionalAfterFinalIgnored) {
  // After the final no provisional can reach the transaction (its handle
  // resolves to null), and a retransmitted request replays the final.
  start();
  respond(200);
  EXPECT_EQ(txn(), nullptr);
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(wire.count_status(200), 2);
  EXPECT_EQ(wire.count_status(100), 0);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(NonInviteServerTest, NoTimerGRetransmissions) {
  start();
  respond(200);
  sim.run_until(SimTime::seconds(20.0));
  EXPECT_EQ(wire.count_status(200), 1);
}

// ---------------------------------------------------------------------------
// TransactionManager
// ---------------------------------------------------------------------------

class ManagerTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TransactionManager manager{sim};
  WireLog wire;
};

TEST_F(ManagerTest, NewRequestReportsNewRequest) {
  EXPECT_EQ(manager.dispatch(make_request(Method::kInvite)),
            Dispatch::kNewRequest);
}

TEST_F(ManagerTest, RetransmissionHitsServerTransaction) {
  auto invite = make_request(Method::kInvite);
  manager.create_server(invite, wire.sender(), ServerCallbacks{});
  EXPECT_EQ(manager.dispatch(invite), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(manager.active_count(), 1u);
}

TEST_F(ManagerTest, ResponseRoutedToClientTransaction) {
  auto invite = make_request(Method::kInvite);
  std::vector<int> codes;
  ClientCallbacks callbacks;
  callbacks.on_response = [&](const MessagePtr& m) {
    codes.push_back(m->status_code());
  };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  EXPECT_EQ(manager.dispatch(make_response(*invite, 180)),
            Dispatch::kHandledByClientTxn);
  EXPECT_EQ(codes, (std::vector<int>{180}));
}

TEST_F(ManagerTest, StrayResponseReported) {
  EXPECT_EQ(manager.dispatch(make_response(*make_request(Method::kInvite), 200)),
            Dispatch::kStrayResponse);
}

TEST_F(ManagerTest, TerminatedTransactionsAreRemoved) {
  auto invite = make_request(Method::kInvite);
  manager.create_client(invite, wire.sender(), ClientCallbacks{});
  EXPECT_EQ(manager.active_count(), 1u);
  // 2xx terminates the INVITE client transaction; removal is scheduled.
  manager.dispatch(make_response(*invite, 200));
  sim.run();
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, AckAfter2xxIsNewRequest) {
  auto invite = make_request(Method::kInvite);
  manager.create_server(invite, wire.sender(), ServerCallbacks{})
      .respond(make_response(*invite, 200));
  sim.run();  // removal event
  Message ack = Message::request(
      Method::kAck, invite->request_uri(), invite->from(), invite->to(),
      invite->call_id(), CSeq{1, Method::kAck});
  ack.push_via(invite->top_via());
  EXPECT_EQ(manager.dispatch(std::move(ack).finish()),
            Dispatch::kNewRequest);
}

TEST_F(ManagerTest, DistinctBranchesAreDistinctTransactions) {
  manager.create_server(make_request(Method::kInvite, "z9hG4bK-x"),
                        wire.sender(), ServerCallbacks{});
  manager.create_server(make_request(Method::kInvite, "z9hG4bK-y"),
                        wire.sender(), ServerCallbacks{});
  EXPECT_EQ(manager.active_count(), 2u);
  EXPECT_EQ(manager.created_count(), 2u);
}

TEST_F(ManagerTest, InviteAndByeSameDialogAreDistinctTransactions) {
  // Same call-id, different method/branch: separate transactions.
  manager.create_server(make_request(Method::kInvite, "z9hG4bK-i", "c1"),
                        wire.sender(), ServerCallbacks{});
  manager.create_server(make_request(Method::kBye, "z9hG4bK-b", "c1"),
                        wire.sender(), ServerCallbacks{});
  EXPECT_EQ(manager.active_count(), 2u);
}

// ---------------------------------------------------------------------------
// Peer-crash drain: when the far end dies mid-transaction, timers B/F/H
// must fire and the manager must end up empty after the simulator drains —
// the invariant the chaos harness checks after every node-crash schedule.
// ---------------------------------------------------------------------------

TEST_F(ManagerTest, CrashedPeerInviteClientDrainsViaTimerB) {
  auto invite = make_request(Method::kInvite);
  int timeouts = 0;
  ClientCallbacks callbacks;
  callbacks.on_timeout = [&] { ++timeouts; };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  EXPECT_EQ(manager.active_count(), 1u);
  sim.run();  // no response will ever arrive
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);
  // Timer B fires at 64*T1 = 32s after the last retransmission schedule.
  EXPECT_GE(sim.now(), SimTime::seconds(32.0));
}

TEST_F(ManagerTest, CrashedPeerByeClientDrainsViaTimerF) {
  auto bye = make_request(Method::kBye);
  int timeouts = 0;
  ClientCallbacks callbacks;
  callbacks.on_timeout = [&] { ++timeouts; };
  manager.create_client(bye, wire.sender(), std::move(callbacks));
  sim.run();
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_GE(wire.count_method(Method::kBye), 2);  // timer E kept retrying
}

TEST_F(ManagerTest, CrashedPeerInviteServerDrainsViaTimerH) {
  auto invite = make_request(Method::kInvite);
  int timeouts = 0;
  ServerCallbacks callbacks;
  callbacks.on_timeout = [&] { ++timeouts; };
  manager.create_server(invite, wire.sender(), std::move(callbacks))
      .respond(make_response(*invite, 486));
  sim.run();  // the ACK never comes: the upstream peer crashed
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, StatefulRelayDrainsWhenDownstreamCrashes) {
  // The proxy's stateful-relay wiring mid-INVITE: a server transaction
  // upstream and a client transaction toward a peer that just crashed.
  // Timer B answers 408 upstream, timer H then reaps the server leg; no
  // transaction and no simulator event may survive the drain.
  auto invite = make_request(Method::kInvite);
  TxnHandle server;
  manager.create_server(invite, wire.sender(), ServerCallbacks{}, &server);

  auto fwd = make_request(Method::kInvite, "z9hG4bK-fwd");
  ClientCallbacks callbacks;
  callbacks.on_timeout = [&] {
    if (auto* srv = manager.find_server(server)) {
      srv->respond(make_response(*invite, 408));
    }
  };
  manager.create_client(fwd, wire.sender(), std::move(callbacks));
  EXPECT_EQ(manager.active_count(), 2u);

  sim.run();
  // Timer G keeps retransmitting the 408 (the crashed-side ACK never
  // arrives) until timer H gives up; at least one went upstream.
  EXPECT_GE(wire.count_status(408), 1);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// Linger records: a transaction in J, K or D keeps no machine
// ---------------------------------------------------------------------------

TEST_F(ManagerTest, RecordReplaysFinalDuringTimerJ) {
  auto bye = make_request(Method::kBye);
  manager.create_server(bye, wire.sender(), ServerCallbacks{})
      .respond(make_response(*bye, 200));
  EXPECT_EQ(manager.record_count(), 1u);
  EXPECT_EQ(manager.active_count(), 1u);
  // A retransmitted BYE is answered with the last response, once per copy.
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(wire.count_status(200), 3);
  EXPECT_TRUE(manager.has_server(*bye));
  EXPECT_EQ(manager.machine_count(), 1u);  // detached, freed by a later event
  sim.run();
  EXPECT_EQ(sim.now(), TimerConfig::timer_j());
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kNewRequest);
}

TEST_F(ManagerTest, RecordAbsorbsRetransmittedFinalDuringTimerK) {
  auto bye = make_request(Method::kBye);
  std::vector<int> codes;
  ClientCallbacks callbacks;
  callbacks.on_response = [&](const MessagePtr& m) {
    codes.push_back(m->status_code());
  };
  manager.create_client(bye, wire.sender(), std::move(callbacks));
  const MessagePtr ok = make_response(*bye, 200);
  EXPECT_EQ(manager.dispatch(ok), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(manager.record_count(), 1u);
  EXPECT_EQ(manager.dispatch(ok), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(codes, (std::vector<int>{200}));
  EXPECT_EQ(wire.sent.size(), 1u);  // the BYE; nothing answers a 200
  sim.run();
  EXPECT_EQ(sim.now(), TimerConfig::timer_k());
  EXPECT_EQ(manager.dispatch(ok), Dispatch::kStrayResponse);
}

TEST_F(ManagerTest, RecordReAcksRetransmitted4xxDuringTimerD) {
  auto invite = make_request(Method::kInvite);
  manager.create_client(invite, wire.sender(), ClientCallbacks{});
  const MessagePtr busy = make_response(*invite, 486);
  EXPECT_EQ(manager.dispatch(busy), Dispatch::kHandledByClientTxn);
  EXPECT_EQ(manager.record_count(), 1u);
  ASSERT_EQ(wire.count_method(Method::kAck), 1);
  const MessagePtr first_ack = wire.sent.back();
  EXPECT_EQ(manager.dispatch(busy), Dispatch::kHandledByClientTxn);
  ASSERT_EQ(wire.count_method(Method::kAck), 2);
  // The re-ACK is rebuilt from the retained INVITE exactly as the first.
  const MessagePtr& re_ack = wire.sent.back();
  EXPECT_EQ(re_ack->top_via().branch, invite->top_via().branch);
  EXPECT_EQ(re_ack->cseq().seq, invite->cseq().seq);
  EXPECT_EQ(re_ack->to().tag, first_ack->to().tag);
  // A retransmitted 2xx is absorbed without an ACK.
  EXPECT_EQ(manager.dispatch(make_response(*invite, 200)),
            Dispatch::kHandledByClientTxn);
  EXPECT_EQ(wire.count_method(Method::kAck), 2);
  sim.run();
  EXPECT_EQ(sim.now(), TimerConfig::timer_d());
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, ExpiryTickOrderDecidesWhatARetransmissionSees) {
  // A linger timer fires at (its expiry, the key reserved when the record
  // was made), and the record leaves the table at a removal event scheduled
  // then. A retransmission on that tick keyed before the timer sees the
  // Completed transaction, one keyed after it sees it Terminated (absorbed,
  // nothing sent), and one after the removal misses the table: the same
  // three outcomes a machine had. A record is found through the message it
  // holds, so that message stays until the removal.
  //
  // Timer J: a retransmitted request is answered with the final only while
  // Completed, and starts a new transaction after the removal.
  auto bye = make_request(Method::kBye);
  auto& server = manager.create_server(bye, wire.sender(), ServerCallbacks{});
  std::vector<Dispatch> seen;
  std::vector<std::size_t> replays;
  auto probe = [&] {
    seen.push_back(manager.dispatch(bye));
    replays.push_back(static_cast<std::size_t>(wire.count_status(200)));
  };
  const SimTime expiry = TimerConfig::timer_j();
  sim.schedule_at(expiry, probe);          // key before the timer's
  server.respond(make_response(*bye, 200));
  sim.schedule_at(expiry, probe);          // key after the timer's
  sim.schedule_at(expiry + SimTime::nanos(1), probe);

  // Timer K: the record holds the final that completed it. A retransmitted
  // final is absorbed on both sides of the timer and nothing is sent; after
  // the removal it is a stray.
  auto fwd = make_request(Method::kBye, "z9hG4bK-k");
  manager.create_client(fwd, wire.sender(), ClientCallbacks{});
  const MessagePtr ok = make_response(*fwd, 200);
  std::vector<Dispatch> k_seen;
  std::vector<std::size_t> k_sent;
  auto k_probe = [&] {
    k_seen.push_back(manager.dispatch(ok));
    k_sent.push_back(wire.sent.size());
  };
  sim.schedule_at(TimerConfig::timer_k(), k_probe);
  ASSERT_EQ(manager.dispatch(ok), Dispatch::kHandledByClientTxn);
  sim.schedule_at(TimerConfig::timer_k(), k_probe);
  sim.schedule_at(TimerConfig::timer_k() + SimTime::nanos(1), k_probe);

  // Timer D: the record holds the INVITE. A retransmitted 486 is re-ACKed
  // only while Completed; after the removal it is a stray.
  auto invite = make_request(Method::kInvite, "z9hG4bK-d");
  manager.create_client(invite, wire.sender(), ClientCallbacks{});
  const MessagePtr busy = make_response(*invite, 486);
  std::vector<Dispatch> d_seen;
  std::vector<int> acks;
  auto d_probe = [&] {
    d_seen.push_back(manager.dispatch(busy));
    acks.push_back(wire.count_method(Method::kAck));
  };
  sim.schedule_at(TimerConfig::timer_d(), d_probe);
  ASSERT_EQ(manager.dispatch(busy), Dispatch::kHandledByClientTxn);
  sim.schedule_at(TimerConfig::timer_d(), d_probe);
  sim.schedule_at(TimerConfig::timer_d() + SimTime::nanos(1), d_probe);
  ASSERT_EQ(manager.record_count(), 3u);
  const std::size_t sent_at_start = wire.sent.size();

  sim.run();
  EXPECT_EQ(seen, (std::vector<Dispatch>{Dispatch::kHandledByServerTxn,
                                         Dispatch::kHandledByServerTxn,
                                         Dispatch::kNewRequest}));
  EXPECT_EQ(replays, (std::vector<std::size_t>{2, 2, 2}));
  EXPECT_EQ(k_seen, (std::vector<Dispatch>{Dispatch::kHandledByClientTxn,
                                           Dispatch::kHandledByClientTxn,
                                           Dispatch::kStrayResponse}));
  EXPECT_EQ(k_sent, std::vector<std::size_t>(3, sent_at_start));
  EXPECT_EQ(d_seen, (std::vector<Dispatch>{Dispatch::kHandledByClientTxn,
                                           Dispatch::kHandledByClientTxn,
                                           Dispatch::kStrayResponse}));
  EXPECT_EQ(acks, (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, HandleToARecordResolvesToNull) {
  auto bye = make_request(Method::kBye);
  TxnHandle server_handle;
  manager.create_server(bye, wire.sender(), ServerCallbacks{},
                        &server_handle);
  ServerTransaction* server = manager.find_server(server_handle);
  ASSERT_NE(server, nullptr);
  server->respond(make_response(*bye, 200));
  EXPECT_EQ(manager.find_server(server_handle), nullptr);

  auto fwd = make_request(Method::kBye, "z9hG4bK-fwd");
  TxnHandle client_handle;
  manager.create_client(fwd, wire.sender(), ClientCallbacks{},
                        &client_handle);
  ASSERT_NE(manager.find_client(client_handle), nullptr);
  manager.dispatch(make_response(*fwd, 200));
  EXPECT_EQ(manager.find_client(client_handle), nullptr);
  EXPECT_EQ(manager.active_count(), 2u);
  sim.run();
  EXPECT_EQ(manager.find_server(server_handle), nullptr);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, RecordsKeepNoMachineAndOneWheelEventPerTimer) {
  // Many transactions lingering on each timer: one pending event per lane,
  // and the machines are freed once a later event retires another.
  constexpr int kCalls = 50;
  std::vector<MessagePtr> requests;
  for (int i = 0; i < kCalls; ++i) {
    sim.schedule(SimTime::millis(i), [&, i] {
      const std::string n = std::to_string(i);
      auto bye = make_request(Method::kBye, "z9hG4bK-s" + n, "c" + n);
      manager.create_server(bye, wire.sender(), ServerCallbacks{})
          .respond(make_response(*bye, 200));
      auto fwd = make_request(Method::kBye, "z9hG4bK-k" + n, "c" + n);
      manager.create_client(fwd, wire.sender(), ClientCallbacks{});
      manager.dispatch(make_response(*fwd, 200));
      auto invite = make_request(Method::kInvite, "z9hG4bK-d" + n, "c" + n);
      manager.create_client(invite, wire.sender(), ClientCallbacks{});
      manager.dispatch(make_response(*invite, 503));
    });
  }
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(manager.active_count(), 3u * kCalls);
  EXPECT_EQ(manager.record_count(), 3u * kCalls);
  EXPECT_LE(manager.machine_count(), 3u);  // the last event's, not yet freed
  EXPECT_EQ(sim.pending_count(), 3u);      // one expiry per lane
  sim.run();
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(ManagerLifetimeTest, DestroyedWithPendingRecordsFreesEverything) {
  // Records of every lane, detached machines not yet freed, and live
  // machines: destroying the manager must release them all (the sanitizer
  // build checks for leaks) and leave no event that calls back into it.
  sim::Simulator sim;
  WireLog wire;
  {
    TransactionManager manager(sim);
    auto bye = make_request(Method::kBye, "z9hG4bK-j");
    manager.create_server(bye, wire.sender(), ServerCallbacks{})
        .respond(make_response(*bye, 200));
    auto fwd = make_request(Method::kBye, "z9hG4bK-k");
    manager.create_client(fwd, wire.sender(), ClientCallbacks{});
    manager.dispatch(make_response(*fwd, 200));
    auto invite = make_request(Method::kInvite, "z9hG4bK-d");
    manager.create_client(invite, wire.sender(), ClientCallbacks{});
    manager.dispatch(make_response(*invite, 486));
    manager.create_client(make_request(Method::kInvite, "z9hG4bK-live"),
                          wire.sender(), ClientCallbacks{});
    EXPECT_EQ(manager.record_count(), 3u);
    EXPECT_EQ(manager.active_count(), 4u);
  }
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.run();
}

TEST_F(ManagerTest, UserTerminatedCallbackRuns) {
  auto invite = make_request(Method::kInvite);
  bool user_terminated = false;
  ClientCallbacks callbacks;
  callbacks.on_terminated = [&] { user_terminated = true; };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  manager.dispatch(make_response(*invite, 200));
  sim.run();
  EXPECT_TRUE(user_terminated);
}

}  // namespace
}  // namespace svk::txn

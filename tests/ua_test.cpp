// Direct tests of the user-agent layer: the UAS's 2xx retransmission
// machinery (RFC 3261 13.3.1.4), duplicate handling, CANCEL while ringing,
// the UAC's response-path behaviours and the Call-ID-indexed call stores
// (workload/call_table.hpp), driven by a scripted peer over the simulated
// network (no proxy in between).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/testbed.hpp"
#include "workload/uac.hpp"
#include "workload/uas.hpp"

namespace svk::workload {
namespace {

using sip::CSeq;
using sip::Message;
using sip::MessagePtr;
using sip::Method;
using sip::NameAddr;
using sip::Uri;
using sip::Via;

/// Scripted peer: records everything, sends raw messages.
class Peer {
 public:
  Peer(TestBed& bed, const std::string& host)
      : bed_(bed), host_(host), addr_(bed.declare_host(host)) {
    bed_.network().attach(addr_, [this](Address, const MessagePtr& msg) {
      inbox_.push_back(msg);
    });
  }

  void send(Address to, const Message& msg) {
    bed_.network().send(addr_, to, sip::clone(msg).finish());
  }

  [[nodiscard]] Address address() const { return addr_; }
  [[nodiscard]] std::vector<MessagePtr>& inbox() { return inbox_; }
  [[nodiscard]] int count_status(int code) const {
    int n = 0;
    for (const auto& m : inbox_) {
      if (m->is_response() && m->status_code() == code) ++n;
    }
    return n;
  }
  /// Responses with `code` to a request with `method` (CSeq method).
  [[nodiscard]] int count_status(int code, Method method) const {
    int n = 0;
    for (const auto& m : inbox_) {
      if (m->is_response() && m->status_code() == code &&
          m->cseq().method == method) {
        ++n;
      }
    }
    return n;
  }
  [[nodiscard]] int count_requests(Method method) const {
    int n = 0;
    for (const auto& m : inbox_) {
      if (m->is_request() && m->method() == method) ++n;
    }
    return n;
  }
  /// The last request with `method` received, or null.
  [[nodiscard]] MessagePtr last_request(Method method) const {
    MessagePtr found;
    for (const auto& m : inbox_) {
      if (m->is_request() && m->method() == method) found = m;
    }
    return found;
  }

 private:
  TestBed& bed_;
  std::string host_;
  Address addr_;
  std::vector<MessagePtr> inbox_;
};

class UaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    bed = std::make_unique<TestBed>(11);
    peer = std::make_unique<Peer>(*bed, "peer.test");
    UasConfig config;
    config.host = "uas.test";
    uas = &bed->add_uas(config);
  }

  Message make_invite(const std::string& call_id = "c1") {
    Message msg = Message::request(
        Method::kInvite, Uri("bob", "uas.test"),
        NameAddr{"", Uri("alice", "peer.test"), "tag-a"},
        NameAddr{"", Uri("bob", "uas.test"), ""}, call_id,
        CSeq{1, Method::kInvite});
    msg.push_via(Via{"SIP/2.0/UDP", "peer.test", "z9hG4bK-" + call_id});
    return msg;
  }

  Message make_ack(const Message& ok) {
    Message ack = Message::request(
        Method::kAck, Uri("bob", "uas.test"), ok.from(), ok.to(),
        ok.call_id(), CSeq{1, Method::kAck});
    ack.push_via(Via{"SIP/2.0/UDP", "peer.test", "z9hG4bK-ack"});
    return ack;
  }

  std::unique_ptr<TestBed> bed;
  std::unique_ptr<Peer> peer;
  Uas* uas = nullptr;
};

TEST_F(UaFixture, AnswersInviteWith180Then200) {
  peer->send(uas->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));
  EXPECT_EQ(peer->count_status(180), 1);
  EXPECT_EQ(peer->count_status(200), 1);
  // 180 and 200 carry the same UAS tag.
  std::string tag_180, tag_200;
  for (const auto& m : peer->inbox()) {
    if (!m->is_response()) continue;
    if (m->status_code() == 180) tag_180 = m->to().tag;
    if (m->status_code() == 200) tag_200 = m->to().tag;
  }
  EXPECT_FALSE(tag_180.empty());
  EXPECT_EQ(tag_180, tag_200);
}

TEST_F(UaFixture, Retransmits200UntilAcked) {
  peer->send(uas->config().address, make_invite());
  // No ACK for 2.2 seconds: 200 retransmits at 0.5, 1.5 (doubling)...
  bed->sim().run_until(SimTime::seconds(2.2));
  EXPECT_GE(peer->count_status(200), 3);
  EXPECT_GE(uas->metrics().retransmitted_200, 2u);

  // ACK stops the retransmissions.
  MessagePtr ok;
  for (const auto& m : peer->inbox()) {
    if (m->is_response() && m->status_code() == 200) ok = m;
  }
  peer->send(uas->config().address, make_ack(*ok));
  bed->sim().run_until(SimTime::seconds(2.5));
  const int after_ack = peer->count_status(200);
  bed->sim().run_until(SimTime::seconds(10.0));
  EXPECT_EQ(peer->count_status(200), after_ack);
  EXPECT_EQ(uas->metrics().calls_established, 1u);
}

TEST_F(UaFixture, GivesUpOn200RetransmissionsAfter64T1) {
  peer->send(uas->config().address, make_invite());
  bed->sim().run_until(SimTime::seconds(40.0));  // > 32s deadline
  const int sent = peer->count_status(200);
  bed->sim().run_until(SimTime::seconds(60.0));
  EXPECT_EQ(peer->count_status(200), sent);  // stopped retrying
  EXPECT_EQ(uas->metrics().calls_established, 0u);  // never ACKed
}

TEST_F(UaFixture, DuplicateAckIsHarmless) {
  peer->send(uas->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));
  MessagePtr ok;
  for (const auto& m : peer->inbox()) {
    if (m->is_response() && m->status_code() == 200) ok = m;
  }
  ASSERT_TRUE(ok);
  peer->send(uas->config().address, make_ack(*ok));
  peer->send(uas->config().address, make_ack(*ok));
  bed->sim().run_until(SimTime::millis(200));
  EXPECT_EQ(uas->metrics().calls_established, 1u);
}

TEST_F(UaFixture, RetransmittedInviteAfter200ReplaysThe200) {
  const Message invite = make_invite();
  peer->send(uas->config().address, invite);
  bed->sim().run_until(SimTime::millis(50));
  EXPECT_EQ(peer->count_status(200), 1);
  // Same INVITE again (the INVITE server transaction is gone after 2xx,
  // but the UAS core still waits for the ACK).
  peer->send(uas->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(peer->count_status(200), 2);
  EXPECT_EQ(uas->metrics().invites_received, 1u);  // not a new call
}

TEST_F(UaFixture, ByeForUnknownDialogStillAnswered) {
  Message bye = Message::request(
      Method::kBye, Uri("bob", "uas.test"),
      NameAddr{"", Uri("alice", "peer.test"), "tag-a"},
      NameAddr{"", Uri("bob", "uas.test"), "tag-b"}, "ghost",
      CSeq{2, Method::kBye});
  bye.push_via(Via{"SIP/2.0/UDP", "peer.test", "z9hG4bK-bye"});
  peer->send(uas->config().address, bye);
  bed->sim().run_until(SimTime::millis(50));
  // Our simple UAS answers any BYE with 200 (SIPp does the same).
  EXPECT_EQ(peer->count_status(200), 1);
}

TEST_F(UaFixture, AnswerDelayHoldsThe200) {
  UasConfig config;
  config.host = "slow.test";
  config.answer_delay = SimTime::seconds(1.0);
  Uas& slow = bed->add_uas(config);

  Message invite = make_invite("c-slow");
  invite.set_request_uri(Uri("bob", "slow.test"));
  peer->send(slow.config().address, invite);
  bed->sim().run_until(SimTime::millis(500));
  EXPECT_EQ(peer->count_status(180), 1);
  EXPECT_EQ(peer->count_status(200), 0);
  bed->sim().run_until(SimTime::millis(1200));
  EXPECT_EQ(peer->count_status(200), 1);
}

TEST_F(UaFixture, UacIgnoresStrayRequests) {
  UacConfig config;
  config.host = "uac.test";
  config.first_hop = peer->address();
  config.target_domain = "nowhere.test";
  config.call_rate_cps = 0.0;
  Uac& uac = bed->add_uac(std::move(config));
  // A request sent at a UAC must be ignored, not crash.
  peer->send(*bed->registry().resolve("uac.test"), make_invite("to-uac"));
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(uac.metrics().calls_attempted, 0u);
}

// A UAC whose first hop is the scripted peer; it places one call at 1 s
// and then stops.
Uac& add_one_call_uac(TestBed& bed, Address first_hop, UacConfig config) {
  config.host = "uac.test";
  config.first_hop = first_hop;
  config.target_domain = "peer.test";
  config.call_rate_cps = 1.0;
  Uac& uac = bed.add_uac(std::move(config));
  uac.start();
  bed.sim().run_until(SimTime::millis(1010));
  uac.stop();
  return uac;
}

Message answer_with(const Message& invite, int code) {
  Message response = Message::response(invite, code);
  response.to().tag = "callee-tag";
  response.set_contact(NameAddr{"", Uri("bob", "peer.test"), ""});
  return response;
}

TEST_F(UaFixture, UacReAcksA200RetransmittedAfterItsTransactionEnded) {
  UacConfig config;
  config.hold_time = SimTime::seconds(30.0);  // the call stays open
  Uac& uac = add_one_call_uac(*bed, peer->address(), std::move(config));
  const Address uac_address = uac.config().address;
  const MessagePtr invite = peer->last_request(Method::kInvite);
  ASSERT_TRUE(invite);

  const Message ok = answer_with(*invite, 200);
  peer->send(uac_address, ok);
  bed->sim().run_until(SimTime::millis(1100));
  ASSERT_EQ(peer->count_requests(Method::kAck), 1);
  const MessagePtr ack = peer->last_request(Method::kAck);
  EXPECT_EQ(uac.metrics().calls_established, 1u);
  EXPECT_EQ(uac.open_calls(), 1u);

  // A 2xx ends the INVITE client transaction, so the retransmitted 200 is
  // stray: the UAC finds the call by its Call-ID and replays the same ACK.
  peer->send(uac_address, ok);
  bed->sim().run_until(SimTime::millis(1200));
  ASSERT_EQ(peer->count_requests(Method::kAck), 2);
  const MessagePtr replayed = peer->last_request(Method::kAck);
  EXPECT_EQ(replayed->top_via().branch, ack->top_via().branch);
  EXPECT_EQ(replayed->call_id(), invite->call_id());
  EXPECT_EQ(uac.metrics().calls_established, 1u);  // not a second call
}

// The UAC keeps the 200's Record-Route set, reversed, as one shared block
// that its ACK and BYE both attach. A one-entry set reads the same either
// way, so the dialog shares the 200's own block.
TEST_F(UaFixture, AckAndByeShareTheOkRouteBlock) {
  UacConfig config;
  config.hold_time = SimTime::millis(100);
  Uac& uac = add_one_call_uac(*bed, peer->address(), std::move(config));
  const MessagePtr invite = peer->last_request(Method::kInvite);
  ASSERT_TRUE(invite);

  Message ok = answer_with(*invite, 200);
  ok.mutable_record_routes().push_back(Uri("", "p2.test"));
  ok.mutable_record_routes().push_back(Uri("", "p1.test"));
  peer->send(uac.config().address, ok);
  bed->sim().run_until(SimTime::millis(1300));
  const MessagePtr ack = peer->last_request(Method::kAck);
  const MessagePtr bye = peer->last_request(Method::kBye);
  ASSERT_TRUE(ack);
  ASSERT_TRUE(bye);
  ASSERT_EQ(ack->routes().size(), 2u);
  EXPECT_EQ(ack->routes()[0].host(), "p1.test");
  EXPECT_EQ(ack->routes()[1].host(), "p2.test");
  EXPECT_EQ(&ack->routes(), &bye->routes());
  EXPECT_NE(&ack->routes(), &ok.record_routes());
}

TEST_F(UaFixture, AOneHopDialogSharesTheOkRecordRouteBlock) {
  UacConfig config;
  config.hold_time = SimTime::millis(100);
  Uac& uac = add_one_call_uac(*bed, peer->address(), std::move(config));
  const MessagePtr invite = peer->last_request(Method::kInvite);
  ASSERT_TRUE(invite);

  Message ok = answer_with(*invite, 200);
  ok.mutable_record_routes().push_back(Uri("", "p1.test"));
  peer->send(uac.config().address, ok);
  bed->sim().run_until(SimTime::millis(1300));
  const MessagePtr ack = peer->last_request(Method::kAck);
  const MessagePtr bye = peer->last_request(Method::kBye);
  ASSERT_TRUE(ack);
  ASSERT_TRUE(bye);
  ASSERT_EQ(ack->routes().size(), 1u);
  EXPECT_EQ(&ack->routes(), &ok.record_routes());
  EXPECT_EQ(&bye->routes(), &ok.record_routes());
}

TEST_F(UaFixture, TimersAndResponsesForAnErasedCallAreIgnored) {
  UacConfig config;
  config.cancel_probability = 1.0;  // every call schedules its CANCEL
  config.ring_abandon_after = SimTime::millis(500);
  Uac& uac = add_one_call_uac(*bed, peer->address(), std::move(config));
  const Address uac_address = uac.config().address;
  const MessagePtr invite = peer->last_request(Method::kInvite);
  ASSERT_TRUE(invite);

  // A 486 ends the call before its CANCEL timer fires; the transaction
  // ACKs the 486 itself.
  peer->send(uac_address, answer_with(*invite, 486));
  bed->sim().run_until(SimTime::millis(1100));
  EXPECT_EQ(uac.open_calls(), 0u);
  EXPECT_EQ(uac.metrics().calls_failed, 1u);
  EXPECT_EQ(peer->count_requests(Method::kAck), 1);

  // The CANCEL timer reaches the erased call through a stale handle.
  bed->sim().run_until(SimTime::seconds(3.0));
  EXPECT_EQ(peer->count_requests(Method::kCancel), 0);
  EXPECT_EQ(uac.metrics().calls_cancelled, 0u);

  // Once timer D has ended the transaction, a late 200 for the call is
  // stray and misses the Call-ID index: no ACK, no established call.
  bed->sim().run_until(SimTime::seconds(40.0));
  peer->send(uac_address, answer_with(*invite, 200));
  bed->sim().run_until(SimTime::seconds(41.0));
  EXPECT_EQ(peer->count_requests(Method::kAck), 1);
  EXPECT_EQ(uac.metrics().calls_established, 0u);
  EXPECT_EQ(uac.open_calls(), 0u);
}

TEST_F(UaFixture, CancelWhileRingingFindsTheCallByCallId) {
  UasConfig config;
  config.host = "slow.test";
  config.answer_delay = SimTime::seconds(1.0);
  Uas& slow = bed->add_uas(config);

  Message invite = make_invite("c-cancel");
  invite.set_request_uri(Uri("bob", "slow.test"));
  peer->send(slow.config().address, invite);
  bed->sim().run_until(SimTime::millis(200));
  EXPECT_EQ(slow.open_calls(), 1u);

  // RFC 3261 9.1: the CANCEL copies the INVITE's Via branch and Call-ID.
  Message cancel = Message::request(
      Method::kCancel, invite.request_uri(), invite.from(), invite.to(),
      invite.call_id(), CSeq{1, Method::kCancel});
  cancel.push_via(invite.top_via());
  peer->send(slow.config().address, cancel);
  bed->sim().run_until(SimTime::seconds(2.0));

  EXPECT_EQ(slow.metrics().cancels_received, 1u);
  EXPECT_EQ(peer->count_status(200, Method::kCancel), 1);
  // The 487 is retransmitted until ACKed, which the peer never does.
  EXPECT_GE(peer->count_status(487, Method::kInvite), 1);
  EXPECT_EQ(peer->count_status(200, Method::kInvite), 0);  // never answered
  EXPECT_EQ(slow.open_calls(), 0u);
}

TEST_F(UaFixture, SecondBranchOfARingingCallKeepsTheFirstEntry) {
  UasConfig config;
  config.host = "slow.test";
  config.answer_delay = SimTime::seconds(1.0);
  Uas& slow = bed->add_uas(config);

  Message first = make_invite("c-twice");
  first.set_request_uri(Uri("bob", "slow.test"));
  Message second = first;
  second.mutable_top_via().branch = "z9hG4bK-other-branch";
  peer->send(slow.config().address, first);
  bed->sim().run_until(SimTime::millis(100));
  peer->send(slow.config().address, second);
  bed->sim().run_until(SimTime::millis(200));
  EXPECT_EQ(peer->count_status(180), 2);  // one per server transaction
  EXPECT_EQ(slow.open_calls(), 1u);

  // The first entry is answered once; the second INVITE's answer event
  // finds no entry of its own and does nothing.
  bed->sim().run_until(SimTime::millis(1300));
  EXPECT_EQ(peer->count_status(200, Method::kInvite), 1);
  EXPECT_EQ(slow.metrics().invites_received, 2u);
}

TEST(UaStoreTest, SteadyLoadMakesNoStoreAllocations) {
  // A UAC calling a UAS directly at a fixed pace: 2 s of ringing and 5 s
  // of hold keep about 1400 calls open at the UAC and 400 ringing at the
  // UAS, several slab chunks each. Once the population has plateaued,
  // calls come and go through the freelists and settled indexes.
  TestBed bed(5);
  UasConfig uas_config;
  uas_config.host = "uas.test";
  uas_config.answer_delay = SimTime::seconds(2.0);
  Uas& uas = bed.add_uas(uas_config);
  UacConfig uac_config;
  uac_config.host = "uac.test";
  uac_config.first_hop = uas.config().address;
  uac_config.target_domain = "uas.test";
  uac_config.call_rate_cps = 200.0;
  uac_config.hold_time = SimTime::seconds(5.0);
  Uac& uac = bed.add_uac(uac_config);
  bed.start_load();

  bed.sim().run_until(SimTime::seconds(10.0));
  const CallTableStats uac_warm = uac.call_store_stats();
  const CallTableStats uas_warm = uas.call_store_stats();
  const std::uint64_t completed_warm = uac.metrics().calls_completed;
  EXPECT_GT(uac.open_calls(), 1000u);
  EXPECT_GT(uas.open_calls(), 300u);
  EXPECT_GT(uac_warm.chunk_allocs, 1u);
  EXPECT_GT(uac_warm.grows, 1u);
  EXPECT_GT(uas_warm.chunk_allocs, 1u);

  bed.sim().run_until(SimTime::seconds(30.0));
  EXPECT_GT(uac.metrics().calls_completed, completed_warm + 3000);
  EXPECT_EQ(uac.call_store_stats().chunk_allocs, uac_warm.chunk_allocs);
  EXPECT_EQ(uac.call_store_stats().grows, uac_warm.grows);
  EXPECT_EQ(uas.call_store_stats().chunk_allocs, uas_warm.chunk_allocs);
  EXPECT_EQ(uas.call_store_stats().grows, uas_warm.grows);
}

}  // namespace
}  // namespace svk::workload

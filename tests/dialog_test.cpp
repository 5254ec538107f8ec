// Unit tests for the dialog layer: identifiers, lifecycle, in-dialog
// matching from either direction.
#include <gtest/gtest.h>

#include "dialog/dialog.hpp"
#include "sip/message.hpp"

namespace svk::dialog {
namespace {

using sip::CSeq;
using sip::Message;
using sip::Method;
using sip::NameAddr;
using sip::Uri;

Message make_invite(const std::string& call_id = "call-1",
                    const std::string& from_tag = "tag-a") {
  Message msg = Message::request(
      Method::kInvite, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.com"), from_tag},
      NameAddr{"", Uri("bob", "example.com"), ""}, call_id,
      CSeq{1, Method::kInvite});
  msg.push_via(sip::Via{"SIP/2.0/UDP", "client.com", "z9hG4bK-1"});
  return msg;
}

Message make_200(const Message& invite, const std::string& to_tag) {
  Message resp = Message::response(invite, 200);
  resp.to().tag = to_tag;
  return resp;
}

Message make_bye(const std::string& call_id, const std::string& from_tag,
                 const std::string& to_tag) {
  Message msg = Message::request(
      Method::kBye, Uri("bob", "uas.example.com"),
      NameAddr{"", Uri("alice", "client.com"), from_tag},
      NameAddr{"", Uri("bob", "example.com"), to_tag}, call_id,
      CSeq{2, Method::kBye});
  msg.push_via(sip::Via{"SIP/2.0/UDP", "client.com", "z9hG4bK-2"});
  return msg;
}

TEST(DialogIdTest, NormalizesTagOrder) {
  const DialogId a = DialogId::make("c1", "x", "y");
  const DialogId b = DialogId::make("c1", "y", "x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dialog_id_hash(a.call_id, a.tag_a, a.tag_b),
            dialog_id_hash(b.call_id, b.tag_a, b.tag_b));
}

TEST(DialogIdTest, DistinctCallsDistinctIds) {
  EXPECT_FALSE(DialogId::make("c1", "x", "y") == DialogId::make("c2", "x", "y"));
  EXPECT_FALSE(DialogId::make("c1", "x", "y") == DialogId::make("c1", "x", "z"));
}

TEST(DialogManagerTest, CreateEarlyThenConfirm) {
  DialogManager manager;
  const Message invite = make_invite();
  Dialog& early = manager.create_early(invite, SimTime::seconds(1.0));
  EXPECT_EQ(early.state, DialogState::kEarly);
  EXPECT_EQ(manager.active_count(), 1u);
  EXPECT_EQ(manager.created_count(), 1u);

  Dialog* confirmed = manager.confirm(make_200(invite, "tag-b"));
  ASSERT_NE(confirmed, nullptr);
  EXPECT_EQ(confirmed->state, DialogState::kConfirmed);
  EXPECT_EQ(manager.active_count(), 1u);  // re-keyed, not duplicated
}

TEST(DialogManagerTest, CreateEarlyIsIdempotentForRetransmits) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  manager.create_early(invite, SimTime{});
  EXPECT_EQ(manager.active_count(), 1u);
  EXPECT_EQ(manager.created_count(), 1u);
}

TEST(DialogManagerTest, ConfirmOfRetransmitted200FindsConfirmed) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  const Message ok = make_200(invite, "tag-b");
  Dialog* first = manager.confirm(ok);
  Dialog* second = manager.confirm(ok);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);
}

TEST(DialogManagerTest, ConfirmWithoutEarlyReturnsNull) {
  DialogManager manager;
  const Message invite = make_invite();
  EXPECT_EQ(manager.confirm(make_200(invite, "tag-b")), nullptr);
}

TEST(DialogManagerTest, MatchesByeFromCaller) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  manager.confirm(make_200(invite, "tag-b"));

  Dialog* matched = manager.match(make_bye("call-1", "tag-a", "tag-b"));
  ASSERT_NE(matched, nullptr);
  EXPECT_EQ(matched->transactions_seen, 2u);
}

TEST(DialogManagerTest, MatchesByeFromCallee) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  manager.confirm(make_200(invite, "tag-b"));

  // Callee-initiated BYE has the tags swapped.
  Dialog* matched = manager.match(make_bye("call-1", "tag-b", "tag-a"));
  EXPECT_NE(matched, nullptr);
}

TEST(DialogManagerTest, NoMatchWithoutToTag) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  EXPECT_EQ(manager.match(invite), nullptr);  // To tag empty: not in-dialog
}

TEST(DialogManagerTest, NoMatchForUnknownDialog) {
  DialogManager manager;
  EXPECT_EQ(manager.match(make_bye("other", "x", "y")), nullptr);
}

TEST(DialogManagerTest, TerminateRemoves) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  Dialog* confirmed = manager.confirm(make_200(invite, "tag-b"));
  ASSERT_NE(confirmed, nullptr);
  manager.terminate(confirmed->id);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.match(make_bye("call-1", "tag-a", "tag-b")), nullptr);
}

TEST(DialogManagerTest, ConcurrentDialogsIndependent) {
  DialogManager manager;
  for (int i = 0; i < 10; ++i) {
    const Message invite =
        make_invite("call-" + std::to_string(i), "tag-" + std::to_string(i));
    manager.create_early(invite, SimTime{});
    manager.confirm(make_200(invite, "uas-" + std::to_string(i)));
  }
  EXPECT_EQ(manager.active_count(), 10u);
  EXPECT_NE(manager.match(make_bye("call-3", "tag-3", "uas-3")), nullptr);
  manager.terminate(DialogId::make("call-3", "tag-3", "uas-3"));
  EXPECT_EQ(manager.active_count(), 9u);
}

TEST(DialogManagerTest, AbandonEarlyRemovesOnFinalFailure) {
  // A final non-2xx ends dialog setup: the early dialog must go away (the
  // historical leak kept it until process end).
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  Message busy = Message::response(invite, 486);

  EXPECT_TRUE(manager.abandon_early(busy));
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(manager.abandoned_count(), 1u);
  // Idempotent for the retransmitted final.
  EXPECT_FALSE(manager.abandon_early(busy));
  EXPECT_EQ(manager.abandoned_count(), 1u);
}

TEST(DialogManagerTest, AbandonEarlyLeavesConfirmedAlone) {
  DialogManager manager;
  const Message invite = make_invite();
  manager.create_early(invite, SimTime{});
  manager.confirm(make_200(invite, "tag-b"));

  // A late failure response for the same call (e.g. a losing fork branch)
  // must not tear down the confirmed dialog.
  EXPECT_FALSE(manager.abandon_early(Message::response(invite, 486)));
  EXPECT_EQ(manager.active_count(), 1u);
}

TEST(DialogManagerTest, ExpireEarlyReapsOnlyStaleEarlyDialogs) {
  DialogManager manager;
  // d0: early, created at t=0 -> stale at t=10 with ttl 5.
  const Message stale = make_invite("call-stale", "tag-s");
  manager.create_early(stale, SimTime{});
  // d1: early but fresh (created at t=8).
  const Message fresh = make_invite("call-fresh", "tag-f");
  manager.create_early(fresh, SimTime::seconds(8.0));
  // d2: confirmed long ago — confirmed dialogs never expire (calls may
  // legitimately outlast any setup TTL).
  const Message old_call = make_invite("call-old", "tag-o");
  manager.create_early(old_call, SimTime{});
  manager.confirm(make_200(old_call, "tag-b"));

  EXPECT_EQ(manager.expire_early(SimTime::seconds(10.0),
                                 SimTime::seconds(5.0)),
            1u);
  EXPECT_EQ(manager.active_count(), 2u);
  EXPECT_EQ(manager.expired_count(), 1u);
  // The stale early dialog is gone; fresh + confirmed remain.
  EXPECT_NE(manager.match(make_bye("call-old", "tag-o", "tag-b")), nullptr);
}

}  // namespace
}  // namespace svk::dialog

// Unit tests for the SIP stack: URI parsing, message model, wire
// serialization round-trips, branch generation and transaction keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "sip/methods.hpp"
#include "sip/parser.hpp"
#include "sip/uri.hpp"

namespace svk::sip {
namespace {

Message make_invite() {
  Message msg = Message::request(
      Method::kInvite, Uri("burdell", "cc.gatech.edu"),
      NameAddr{"Hal", Uri("hal", "us.ibm.com"), "tag-hal"},
      NameAddr{"", Uri("burdell", "cc.gatech.edu"), ""}, "call-1",
      CSeq{1, Method::kInvite});
  msg.push_via(Via{"SIP/2.0/UDP", "uac.us.ibm.com", "z9hG4bK-abc"});
  msg.set_contact(NameAddr{"", Uri("hal", "uac.us.ibm.com"), ""});
  return msg;
}

// ---------------------------------------------------------------------------
// Methods and status codes
// ---------------------------------------------------------------------------

TEST(MethodsTest, RoundTripAllMethods) {
  for (const Method m :
       {Method::kInvite, Method::kAck, Method::kBye, Method::kCancel,
        Method::kOptions, Method::kRegister, Method::kInfo, Method::kUpdate,
        Method::kSubscribe, Method::kNotify}) {
    EXPECT_EQ(parse_method(to_string(m)), m);
  }
}

TEST(MethodsTest, UnknownTokens) {
  EXPECT_EQ(parse_method("PUBLISH"), Method::kUnknown);
  EXPECT_EQ(parse_method("invite"), Method::kUnknown);  // case-sensitive
  EXPECT_EQ(parse_method(""), Method::kUnknown);
}

TEST(MethodsTest, ResponseClasses) {
  EXPECT_TRUE(is_provisional(100));
  EXPECT_TRUE(is_provisional(183));
  EXPECT_FALSE(is_provisional(200));
  EXPECT_TRUE(is_final(200));
  EXPECT_TRUE(is_final(500));
  EXPECT_TRUE(is_success(200));
  EXPECT_TRUE(is_success(299));
  EXPECT_FALSE(is_success(300));
}

TEST(MethodsTest, ReasonPhrases) {
  EXPECT_EQ(reason_phrase(100), "Trying");
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(500), "Server Internal Error");
  EXPECT_EQ(reason_phrase(999), "Unknown");
}

// ---------------------------------------------------------------------------
// Uri
// ---------------------------------------------------------------------------

TEST(UriTest, ParsesFullForm) {
  const auto result =
      Uri::parse("sip:hal@us.ibm.com:5060;transport=udp;lr");
  ASSERT_TRUE(result.ok());
  const Uri& uri = result.value();
  EXPECT_EQ(uri.scheme(), "sip");
  EXPECT_EQ(uri.user(), "hal");
  EXPECT_EQ(uri.host(), "us.ibm.com");
  EXPECT_EQ(uri.port(), 5060);
  EXPECT_EQ(uri.param("transport"), "udp");
  EXPECT_TRUE(uri.has_param("lr"));
  EXPECT_FALSE(uri.has_param("missing"));
}

TEST(UriTest, ParsesHostOnly) {
  const auto result = Uri::parse("sip:example.com");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().user(), "");
  EXPECT_EQ(result.value().host(), "example.com");
  EXPECT_EQ(result.value().port(), 0);
}

TEST(UriTest, ParsesSips) {
  const auto result = Uri::parse("sips:a@b.com");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().scheme(), "sips");
}

TEST(UriTest, RejectsMalformed) {
  EXPECT_FALSE(Uri::parse("").ok());
  EXPECT_FALSE(Uri::parse("nocolon").ok());
  EXPECT_FALSE(Uri::parse("http://x.com").ok());
  EXPECT_FALSE(Uri::parse("sip:").ok());
  EXPECT_FALSE(Uri::parse("sip:@host").ok());
  EXPECT_FALSE(Uri::parse("sip:user@").ok());
  EXPECT_FALSE(Uri::parse("sip:user@host:notaport").ok());
  EXPECT_FALSE(Uri::parse("sip:user@host:0").ok());
  EXPECT_FALSE(Uri::parse("sip:user@host:70000").ok());
  EXPECT_FALSE(Uri::parse("sip:user@:5060").ok());
}

TEST(UriTest, RoundTripsThroughToString) {
  for (const std::string text :
       {"sip:hal@us.ibm.com", "sip:host.only", "sip:a@b.c:5070",
        "sip:a@b.c;lr", "sip:a@b.c:1;x=y;flag"}) {
    const auto parsed = Uri::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed.value().to_string(), text);
  }
}

TEST(UriTest, AorIgnoresPortAndParams) {
  const auto uri = Uri::parse("sip:hal@us.ibm.com:5060;lr");
  ASSERT_TRUE(uri.ok());
  EXPECT_EQ(uri.value().aor(), "hal@us.ibm.com");
}

TEST(UriTest, EqualityIgnoresParams) {
  const auto a = Uri::parse("sip:u@h;x=1").value();
  const auto b = Uri::parse("sip:u@h;y=2").value();
  EXPECT_EQ(a, b);
  const auto c = Uri::parse("sip:u@h:5060").value();
  EXPECT_FALSE(a == c);
}

TEST(UriTest, SetParamReplaces) {
  Uri uri("u", "h");
  uri.set_param("x", "1");
  uri.set_param("x", "2");
  EXPECT_EQ(uri.param("x"), "2");
  EXPECT_EQ(uri.params().size(), 1u);
}

TEST(UriTest, QueryHeadersTolerated) {
  const auto uri = Uri::parse("sip:u@h?subject=hi");
  ASSERT_TRUE(uri.ok());
  EXPECT_EQ(uri.value().host(), "h");
}

// ---------------------------------------------------------------------------
// Message model
// ---------------------------------------------------------------------------

TEST(MessageTest, RequestSkeleton) {
  const Message msg = make_invite();
  EXPECT_TRUE(msg.is_request());
  EXPECT_EQ(msg.method(), Method::kInvite);
  EXPECT_EQ(msg.call_id(), "call-1");
  EXPECT_EQ(msg.cseq().seq, 1u);
  EXPECT_EQ(msg.max_forwards(), 70);
}

TEST(MessageTest, ResponseCopiesIdentityHeaders) {
  const Message req = make_invite();
  const Message resp = Message::response(req, 180);
  EXPECT_TRUE(resp.is_response());
  EXPECT_EQ(resp.status_code(), 180);
  EXPECT_EQ(resp.reason(), "Ringing");
  EXPECT_EQ(resp.vias(), req.vias());
  EXPECT_EQ(resp.from(), req.from());
  EXPECT_EQ(resp.to(), req.to());
  EXPECT_EQ(resp.call_id(), req.call_id());
  EXPECT_EQ(resp.cseq(), req.cseq());
}

TEST(MessageTest, ResponseCustomReason) {
  const Message req = make_invite();
  const Message resp = Message::response(req, 500, "Busy Busy");
  EXPECT_EQ(resp.reason(), "Busy Busy");
}

TEST(MessageTest, ViaStackLifo) {
  Message msg = make_invite();
  msg.push_via(Via{"SIP/2.0/UDP", "p1.example.com", "z9hG4bK-p1"});
  msg.push_via(Via{"SIP/2.0/UDP", "p2.example.com", "z9hG4bK-p2"});
  EXPECT_EQ(msg.top_via().sent_by, "p2.example.com");
  msg.pop_via();
  EXPECT_EQ(msg.top_via().sent_by, "p1.example.com");
  EXPECT_EQ(msg.vias().size(), 2u);
}

TEST(MessageTest, ViaOrderingSurvivesMultiHopForwarding) {
  // Simulate the copy-on-forward chain UAC -> p1 -> p2: each hop clones the
  // shared message and pushes its own Via. The wire format must list the
  // newest Via first (RFC 3261 18.2.1), and the response return path must
  // pop them in reverse push order.
  Message invite = make_invite();  // top via: uac.us.ibm.com
  Message hop1 = clone(invite);
  hop1.push_via(Via{"SIP/2.0/UDP", "p1.example.com", "z9hG4bK-h1"});
  hop1.decrement_max_forwards();
  Message hop2 = clone(hop1);
  hop2.push_via(Via{"SIP/2.0/UDP", "p2.example.com", "z9hG4bK-h2"});
  hop2.decrement_max_forwards();

  ASSERT_EQ(hop2.vias().size(), 3u);
  EXPECT_EQ(hop2.top_via().sent_by, "p2.example.com");

  // Wire order: top (most recent) Via line first.
  const std::string wire = hop2.to_wire();
  const auto pos_p2 = wire.find("Via: SIP/2.0/UDP p2.example.com");
  const auto pos_p1 = wire.find("Via: SIP/2.0/UDP p1.example.com");
  const auto pos_uac = wire.find("Via: SIP/2.0/UDP uac.us.ibm.com");
  ASSERT_NE(pos_p2, std::string::npos);
  ASSERT_NE(pos_p1, std::string::npos);
  ASSERT_NE(pos_uac, std::string::npos);
  EXPECT_LT(pos_p2, pos_p1);
  EXPECT_LT(pos_p1, pos_uac);

  // Round-trip through the parser preserves the stack exactly.
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().vias(), hop2.vias());
  EXPECT_EQ(parsed.value().top_via().sent_by, "p2.example.com");

  // Response return path: each proxy pops its own Via off the top.
  Message resp = Message::response(hop2, 200);
  EXPECT_EQ(resp.top_via().sent_by, "p2.example.com");
  resp.pop_via();
  EXPECT_EQ(resp.top_via().sent_by, "p1.example.com");
  resp.pop_via();
  EXPECT_EQ(resp.top_via().sent_by, "uac.us.ibm.com");
  EXPECT_EQ(resp.vias(), invite.vias());
}

TEST(MessageTest, ExtensionHeaders) {
  Message msg = make_invite();
  EXPECT_FALSE(msg.header("X-Stateful").has_value());
  msg.set_header("X-Stateful", "p1");
  EXPECT_EQ(msg.header("X-Stateful"), "p1");
  msg.set_header("X-Stateful", "p2");  // replace
  EXPECT_EQ(msg.header("X-Stateful"), "p2");
  EXPECT_EQ(msg.extension_headers().size(), 1u);
  msg.remove_header("X-Stateful");
  EXPECT_FALSE(msg.header("X-Stateful").has_value());
}

TEST(MessageTest, MaxForwardsDecrement) {
  Message msg = make_invite();
  msg.set_max_forwards(2);
  msg.decrement_max_forwards();
  EXPECT_EQ(msg.max_forwards(), 1);
}

TEST(MessageTest, CloneIsIndependent) {
  Message original = make_invite();
  original.set_body("v=0");
  Message copy = clone(original);
  copy.set_header("X-Test", "1");
  copy.pop_via();
  EXPECT_FALSE(original.header("X-Test").has_value());
  EXPECT_EQ(original.vias().size(), 1u);
  // Neither change touched the call identity: the clone still shares it.
  EXPECT_EQ(&copy.call_id(), &original.call_id());
  EXPECT_EQ(&std::as_const(copy).from(), &std::as_const(original).from());

  // Every mutating accessor detaches the clone before writing.
  const std::string wire = original.to_wire();
  const std::vector<std::function<void(Message&)>> mutations = {
      [](Message& m) { m.to().tag = "tag-burdell"; },
      [](Message& m) { m.from().display = "Mallory"; },
      [](Message& m) { m.set_request_uri(Uri("bob", "elsewhere.test")); },
      [](Message& m) {
        m.set_contact(NameAddr{"", Uri("bob", "contact.test"), ""});
      },
      [](Message& m) { m.set_body("v=1"); },
  };
  for (const auto& mutate : mutations) {
    Message mutated = clone(original);
    ASSERT_EQ(&mutated.call_id(), &original.call_id());
    mutate(mutated);
    EXPECT_NE(&mutated.call_id(), &original.call_id());
    EXPECT_EQ(mutated.call_id(), original.call_id());
    EXPECT_NE(mutated.to_wire(), wire);
    EXPECT_EQ(original.to_wire(), wire);
  }

  // Detaching works in the other direction too.
  const Message kept = clone(original);
  original.to().tag = "tag-burdell";
  EXPECT_TRUE(kept.to().tag.empty());
  EXPECT_EQ(kept.to_wire(), wire);
}

TEST(MessageTest, SharedIdentityIsReleasedOnAnyThread) {
  // Clones that share one identity block are dropped on other threads; the
  // last release frees it exactly once (checked under the sanitizers).
  const MessagePtr original = make_invite().finish();
  std::vector<MessagePtr> clones;
  for (int i = 0; i < 64; ++i) clones.push_back(clone(*original).finish());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&clones, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < clones.size();
           i += 4) {
        EXPECT_EQ(clones[i]->call_id(), "call-1");
        clones[i].reset();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(original->call_id(), "call-1");
}

TEST(MessageTest, HeaderCountReflectsContents) {
  Message msg = make_invite();
  const std::size_t base = msg.header_count();
  msg.set_header("X-A", "1");
  msg.record_routes().push_back(Uri("", "p1.example.com"));
  EXPECT_EQ(msg.header_count(), base + 2);
}

// ---------------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  Message msg = make_invite();
  msg.set_header("X-Stateful", "proxy0.example.net");
  msg.routes().push_back(Uri("", "p1.example.com"));
  msg.record_routes().push_back(Uri("", "p2.example.com"));
  msg.set_body("v=0");

  const std::string wire = msg.to_wire();
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Message& round = parsed.value();

  EXPECT_TRUE(round.is_request());
  EXPECT_EQ(round.method(), Method::kInvite);
  EXPECT_EQ(round.request_uri(), msg.request_uri());
  EXPECT_EQ(round.vias(), msg.vias());
  EXPECT_EQ(round.from(), msg.from());
  EXPECT_EQ(round.to(), msg.to());
  EXPECT_EQ(round.call_id(), msg.call_id());
  EXPECT_EQ(round.cseq(), msg.cseq());
  EXPECT_EQ(round.max_forwards(), msg.max_forwards());
  ASSERT_TRUE(round.contact().has_value());
  EXPECT_EQ(round.contact()->uri, msg.contact()->uri);
  EXPECT_EQ(round.routes().size(), 1u);
  EXPECT_EQ(round.record_routes().size(), 1u);
  EXPECT_EQ(round.header("X-Stateful"), "proxy0.example.net");
  EXPECT_EQ(round.body(), "v=0");
}

TEST(WireTest, ResponseRoundTrip) {
  const Message req = make_invite();
  Message resp = Message::response(req, 200);
  resp.to().tag = "uas-tag";
  resp.set_contact(NameAddr{"", Uri("", "uas0.example.com"), ""});

  const auto parsed = Parser::parse(resp.to_wire());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(parsed.value().is_response());
  EXPECT_EQ(parsed.value().status_code(), 200);
  EXPECT_EQ(parsed.value().reason(), "OK");
  EXPECT_EQ(parsed.value().to().tag, "uas-tag");
  EXPECT_EQ(parsed.value().from().tag, "tag-hal");
}

class WireMethodRoundTrip : public ::testing::TestWithParam<Method> {};

TEST_P(WireMethodRoundTrip, PreservesMethod) {
  const Method method = GetParam();
  Message msg = Message::request(
      method, Uri("u", "example.com"),
      NameAddr{"", Uri("a", "x.com"), "t1"},
      NameAddr{"", Uri("b", "y.com"), ""}, "cid", CSeq{7, method});
  msg.push_via(Via{"SIP/2.0/UDP", "host.x.com", "z9hG4bK-1"});
  const auto parsed = Parser::parse(msg.to_wire());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method(), method);
  EXPECT_EQ(parsed.value().cseq().method, method);
  EXPECT_EQ(parsed.value().cseq().seq, 7u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, WireMethodRoundTrip,
    ::testing::Values(Method::kInvite, Method::kAck, Method::kBye,
                      Method::kCancel, Method::kOptions, Method::kRegister,
                      Method::kSubscribe, Method::kNotify));

class WireStatusRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireStatusRoundTrip, PreservesStatus) {
  const Message req = make_invite();
  const Message resp = Message::response(req, GetParam());
  const auto parsed = Parser::parse(resp.to_wire());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status_code(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(CommonCodes, WireStatusRoundTrip,
                         ::testing::Values(100, 180, 183, 200, 202, 302, 400,
                                           404, 407, 408, 483, 486, 500, 503,
                                           603));

TEST(WireTest, ViaOcParameterRoundTrip) {
  // RFC 7339-style overload feedback: the `oc` Via parameter carries the
  // permitted upstream rate and must survive serialize -> parse intact.
  const Message req = make_invite();
  Message resp = Message::response(req, 200);
  resp.top_via().oc_rate = 1234.5;

  const std::string wire = resp.to_wire();
  EXPECT_NE(wire.find(";oc=1234.500"), std::string::npos);

  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_DOUBLE_EQ(parsed.value().top_via().oc_rate, 1234.5);
}

TEST(WireTest, ViaOcAbsentByDefault) {
  // Without an overload policy no `oc` parameter reaches the wire, so
  // pre-overload-control byte streams (and their digests) are unchanged.
  const Message req = make_invite();
  const Message resp = Message::response(req, 200);
  const std::string wire = resp.to_wire();
  EXPECT_EQ(wire.find(";oc="), std::string::npos);

  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_LT(parsed.value().top_via().oc_rate, 0.0);
}

TEST(WireTest, ViaOcMalformedIgnored) {
  const Message req = make_invite();
  Message resp = Message::response(req, 200);
  std::string wire = resp.to_wire();
  const auto pos = wire.find("\r\n", wire.find("Via:"));
  ASSERT_NE(pos, std::string::npos);
  wire.insert(pos, ";oc=banana");
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_LT(parsed.value().top_via().oc_rate, 0.0);
}

TEST(WireTest, DisplayNameRoundTrip) {
  Message msg = make_invite();
  const auto parsed = Parser::parse(msg.to_wire());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().from().display, "Hal");
}

TEST(WireTest, EmptyBodyContentLengthZero) {
  const std::string wire = make_invite().to_wire();
  EXPECT_NE(wire.find("Content-Length: 0\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser negative cases
// ---------------------------------------------------------------------------

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(Parser::parse("").ok());
  EXPECT_FALSE(Parser::parse("hello world").ok());
  EXPECT_FALSE(Parser::parse("INVITE\r\n\r\n").ok());
}

TEST(ParserTest, RejectsWrongVersion) {
  EXPECT_FALSE(
      Parser::parse("INVITE sip:u@h SIP/1.0\r\nCall-ID: x\r\n\r\n").ok());
}

TEST(ParserTest, RejectsMissingMandatoryHeaders) {
  // Well-formed start line but no Call-ID/CSeq/From/To/Via.
  const std::string wire = "INVITE sip:u@h SIP/2.0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  EXPECT_FALSE(parsed.ok());
}

TEST(ParserTest, RejectsBadStatusCode) {
  EXPECT_FALSE(Parser::parse("SIP/2.0 99 Too Low\r\n\r\n").ok());
  EXPECT_FALSE(Parser::parse("SIP/2.0 abc Bad\r\n\r\n").ok());
}

TEST(ParserTest, RejectsTruncatedBody) {
  Message msg = make_invite();
  msg.set_body("0123456789");
  std::string wire = msg.to_wire();
  wire.resize(wire.size() - 5);  // cut body short
  EXPECT_FALSE(Parser::parse(wire).ok());
}

TEST(ParserTest, RejectsHeaderWithoutColon) {
  std::string wire = make_invite().to_wire();
  const auto pos = wire.find("Call-ID:");
  wire.replace(pos, 8, "Call-ID ");
  EXPECT_FALSE(Parser::parse(wire).ok());
}

TEST(ParserTest, ToleratesLfOnlyLineEndings) {
  std::string wire = make_invite().to_wire();
  std::string lf_only;
  for (const char c : wire) {
    if (c != '\r') lf_only += c;
  }
  EXPECT_TRUE(Parser::parse(lf_only).ok());
}

TEST(ParserTest, CompactHeaderNames) {
  const std::string wire =
      "INVITE sip:u@h SIP/2.0\r\n"
      "v: SIP/2.0/UDP client.com;branch=z9hG4bK-77\r\n"
      "f: <sip:a@x.com>;tag=t\r\n"
      "t: <sip:b@y.com>\r\n"
      "i: abc-123\r\n"
      "CSeq: 3 INVITE\r\n"
      "l: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().call_id(), "abc-123");
  EXPECT_EQ(parsed.value().top_via().branch, "z9hG4bK-77");
  EXPECT_EQ(parsed.value().from().tag, "t");
}

TEST(ParserTest, NameAddrBareUriWithTag) {
  const auto na = parse_name_addr("sip:a@x.com;tag=abc");
  ASSERT_TRUE(na.ok());
  EXPECT_EQ(na.value().uri.aor(), "a@x.com");
  EXPECT_EQ(na.value().tag, "abc");
}

TEST(ParserTest, NameAddrRejectsUnterminatedDisplay) {
  EXPECT_FALSE(parse_name_addr("\"Hal <sip:a@x.com>").ok());
  EXPECT_FALSE(parse_name_addr("<sip:a@x.com").ok());
}

// ---------------------------------------------------------------------------
// Header folding and comma-combined multi-value headers (RFC 3261 7.3 /
// 7.3.1): equivalent wire forms peers are allowed to emit.
// ---------------------------------------------------------------------------

TEST(ParserTest, UnfoldsContinuationLines) {
  const std::string wire =
      "INVITE sip:u@h SIP/2.0\r\n"
      "Via: SIP/2.0/UDP\r\n"
      " client.com;branch=z9hG4bK-fold\r\n"
      "From: <sip:a@x.com>;tag=t\r\n"
      "To: <sip:b@y.com>\r\n"
      "Call-ID: fold-1\r\n"
      "CSeq: 3 INVITE\r\n"
      "Subject: I know you're there,\r\n"
      "\tpick up the phone!\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().top_via().sent_by, "client.com");
  EXPECT_EQ(parsed.value().top_via().branch, "z9hG4bK-fold");
  EXPECT_EQ(parsed.value().header("Subject"),
            "I know you're there, pick up the phone!");
}

TEST(ParserTest, SplitsCommaCombinedVias) {
  // One Via field listing two hops is equivalent to two Via fields; wire
  // order is top-first, the model stores the stack bottom-first.
  const std::string wire =
      "SIP/2.0 180 Ringing\r\n"
      "Via: SIP/2.0/UDP p1.com;branch=z9hG4bK-a, "
      "SIP/2.0/UDP client.com;branch=z9hG4bK-b\r\n"
      "From: <sip:a@x.com>;tag=t\r\n"
      "To: <sip:b@y.com>;tag=u\r\n"
      "Call-ID: comma-1\r\n"
      "CSeq: 1 INVITE\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Message& msg = parsed.value();
  ASSERT_EQ(msg.vias().size(), 2u);
  EXPECT_EQ(msg.top_via().sent_by, "p1.com");
  EXPECT_EQ(msg.top_via().branch, "z9hG4bK-a");
  EXPECT_EQ(msg.vias().front().sent_by, "client.com");
}

TEST(ParserTest, CommaCombinedViasRoundTripAsSeparateLines) {
  const std::string wire =
      "INVITE sip:u@h SIP/2.0\r\n"
      "Via: SIP/2.0/UDP p1.com;branch=z9hG4bK-a, "
      "SIP/2.0/UDP client.com;branch=z9hG4bK-b\r\n"
      "From: <sip:a@x.com>;tag=t\r\n"
      "To: <sip:b@y.com>\r\n"
      "Call-ID: comma-2\r\n"
      "CSeq: 1 INVITE\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const auto round = Parser::parse(parsed.value().to_wire());
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_EQ(round.value().vias(), parsed.value().vias());
}

TEST(ParserTest, SplitsCommaCombinedRouteSets) {
  const std::string wire =
      "BYE sip:u@h SIP/2.0\r\n"
      "Via: SIP/2.0/UDP client.com;branch=z9hG4bK-r\r\n"
      "Route: <sip:p1.example.com;lr>, <sip:p2.example.com;lr>\r\n"
      "Record-Route: <sip:p3.example.com>,<sip:p4.example.com>\r\n"
      "From: <sip:a@x.com>;tag=t\r\n"
      "To: <sip:b@y.com>;tag=u\r\n"
      "Call-ID: comma-3\r\n"
      "CSeq: 2 BYE\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Message& msg = parsed.value();
  ASSERT_EQ(msg.routes().size(), 2u);
  EXPECT_EQ(msg.routes()[0].host(), "p1.example.com");
  EXPECT_EQ(msg.routes()[1].host(), "p2.example.com");
  ASSERT_EQ(msg.record_routes().size(), 2u);
  EXPECT_EQ(msg.record_routes()[0].host(), "p3.example.com");
  EXPECT_EQ(msg.record_routes()[1].host(), "p4.example.com");
}

TEST(ParserTest, CommaInsideQuotesOrBracketsDoesNotSplit) {
  // The list separator is a *top-level* comma: commas inside a quoted
  // display name or inside <...> belong to the value.
  const std::string wire =
      "INVITE sip:u@h SIP/2.0\r\n"
      "Via: SIP/2.0/UDP client.com;branch=z9hG4bK-q\r\n"
      "From: \"Smith, John\" <sip:a@x.com>;tag=t\r\n"
      "To: <sip:b@y.com>\r\n"
      "Record-Route: <sip:p1.example.com>, <sip:p2.example.com>\r\n"
      "Call-ID: comma-4\r\n"
      "CSeq: 1 INVITE\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().from().display, "Smith, John");
  ASSERT_EQ(parsed.value().record_routes().size(), 2u);
}

TEST(ParserTest, FoldedCommaCombinedViaList) {
  // Folding and comma-combining compose: a hop list wrapped across lines.
  const std::string wire =
      "SIP/2.0 200 OK\r\n"
      "Via: SIP/2.0/UDP p1.com;branch=z9hG4bK-a,\r\n"
      " SIP/2.0/UDP client.com;branch=z9hG4bK-b\r\n"
      "From: <sip:a@x.com>;tag=t\r\n"
      "To: <sip:b@y.com>;tag=u\r\n"
      "Call-ID: fold-comma\r\n"
      "CSeq: 1 INVITE\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto parsed = Parser::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_EQ(parsed.value().vias().size(), 2u);
  EXPECT_EQ(parsed.value().top_via().sent_by, "p1.com");
  EXPECT_EQ(parsed.value().vias().front().branch, "z9hG4bK-b");
}

// ---------------------------------------------------------------------------
// Branches and transaction keys
// ---------------------------------------------------------------------------

TEST(BranchTest, GeneratorEmitsUniqueCookiePrefixed) {
  BranchGenerator gen(42);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string branch = gen.next();
    EXPECT_TRUE(branch.starts_with(kMagicCookie)) << branch;
    EXPECT_TRUE(seen.insert(branch).second) << "duplicate " << branch;
  }
}

TEST(BranchTest, DistinctElementsDistinctBranches) {
  BranchGenerator a(1);
  BranchGenerator b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(BranchTest, StatelessBranchDeterministic) {
  const std::string b1 = stateless_branch("z9hG4bK-abc", "p1.example.com");
  const std::string b2 = stateless_branch("z9hG4bK-abc", "p1.example.com");
  EXPECT_EQ(b1, b2);
  EXPECT_TRUE(b1.starts_with(kMagicCookie));
  // Different host or input branch -> different output.
  EXPECT_NE(b1, stateless_branch("z9hG4bK-abc", "p2.example.com"));
  EXPECT_NE(b1, stateless_branch("z9hG4bK-abd", "p1.example.com"));
}

TEST(TxnKeyTest, AckMatchesInviteServerKey) {
  Message invite = make_invite();
  Message ack = Message::request(
      Method::kAck, invite.request_uri(), invite.from(), invite.to(),
      invite.call_id(), CSeq{1, Method::kAck});
  ack.push_via(invite.top_via());
  EXPECT_EQ(server_key(invite), server_key(ack));
}

TEST(TxnKeyTest, CancelDoesNotMatchInvite) {
  Message invite = make_invite();
  Message cancel = Message::request(
      Method::kCancel, invite.request_uri(), invite.from(), invite.to(),
      invite.call_id(), CSeq{1, Method::kCancel});
  cancel.push_via(invite.top_via());
  EXPECT_FALSE(server_key(invite) == server_key(cancel));
}

TEST(TxnKeyTest, ResponseMatchesClientKeyOfRequest) {
  const Message invite = make_invite();
  const Message resp = Message::response(invite, 180);
  // Client key of the response equals the key derived from the request's
  // top via + method.
  const TransactionKey expect{invite.top_via().branch,
                              invite.top_via().sent_by.str(), Method::kInvite};
  EXPECT_EQ(client_key(resp), expect);
}

TEST(TxnKeyTest, DifferentBranchesDifferentKeys) {
  Message a = make_invite();
  Message b = make_invite();
  b.top_via().branch = "z9hG4bK-other";
  EXPECT_FALSE(server_key(a) == server_key(b));
  TransactionKeyHash hash;
  EXPECT_NE(hash(server_key(a)), hash(server_key(b)));
}

TEST(TxnKeyTest, HashConsistentWithEquality) {
  const Message msg = make_invite();
  TransactionKeyHash hash;
  EXPECT_EQ(hash(server_key(msg)), hash(server_key(msg)));
}

// ---------------------------------------------------------------------------
// Generator-based wire properties
// ---------------------------------------------------------------------------
//
// A seeded generator produces structurally varied messages (deep Via
// stacks past the SmallVector inline capacity of 4, route sets past their
// inline capacity of 2, extension headers, bodies, oc feedback), and the
// parser must (a) reproduce them bit-for-bit from the wire and (b) survive
// arbitrarily torn/truncated datagrams without crashing — a UDP receiver
// sees whatever the network delivers.

Message random_message(Rng& rng) {
  static constexpr const char* kUsers[] = {"alice", "bob", "", "burdell"};
  static constexpr const char* kHosts[] = {"a.example.com", "b.example.org",
                                           "proxy0.example.net",
                                           "uas3.callee.example.net"};
  static constexpr const char* kDisplays[] = {"", "Hal", "Op Ratio"};
  static constexpr Method kMethods[] = {Method::kInvite, Method::kBye,
                                        Method::kRegister, Method::kOptions};
  const auto user = [&] { return kUsers[rng.uniform_int(4)]; };
  const auto host = [&] { return kHosts[rng.uniform_int(4)]; };
  const auto display = [&] { return kDisplays[rng.uniform_int(3)]; };

  const Method method = kMethods[rng.uniform_int(4)];
  Message msg = Message::request(
      method, Uri(user(), host()),
      NameAddr{display(), Uri(user(), host()),
               "tag-" + std::to_string(rng.uniform_int(1000))},
      NameAddr{display(), Uri(user(), host()), ""},
      "call-" + std::to_string(rng.uniform_int(100000)),
      CSeq{static_cast<std::uint32_t>(1 + rng.uniform_int(5000)), method});

  // 1..10 Vias: well past ViaList's inline capacity of 4, so growth into
  // heap storage (and back through the parser) is always exercised.
  const std::size_t num_vias = 1 + rng.uniform_int(10);
  for (std::size_t i = 0; i < num_vias; ++i) {
    Via via{rng.uniform_int(2) == 0 ? "SIP/2.0/UDP" : "SIP/2.0/TCP", host(),
            "z9hG4bK-" + std::to_string(rng.uniform_int(1u << 30))};
    if (rng.uniform_int(3) == 0) {
      // %.3f serialization: eighths round-trip exactly through strtod.
      via.oc_rate = static_cast<double>(rng.uniform_int(8000)) / 8.0;
    }
    msg.push_via(std::move(via));
  }

  for (std::size_t i = rng.uniform_int(5); i > 0; --i) {
    msg.routes().push_back(Uri("", host()));
  }
  for (std::size_t i = rng.uniform_int(5); i > 0; --i) {
    msg.record_routes().push_back(Uri("", host()));
  }
  for (std::size_t i = rng.uniform_int(4); i > 0; --i) {
    msg.set_header("X-Prop-" + std::to_string(i),
                   "v" + std::to_string(rng.uniform_int(100)));
  }
  if (rng.uniform_int(2) == 0) {
    msg.set_contact(NameAddr{display(), Uri(user(), host()), ""});
  }
  if (rng.uniform_int(2) == 0) {
    std::string body;
    for (std::size_t i = 1 + rng.uniform_int(40); i > 0; --i) {
      body += static_cast<char>('a' + rng.uniform_int(26));
    }
    msg.set_body(body);
  }
  msg.set_max_forwards(static_cast<int>(rng.uniform_int(71)));
  return msg;
}

TEST(WirePropertyTest, RandomMessagesRoundTripExactly) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Message msg = random_message(rng);
    const auto parsed = Parser::parse(msg.to_wire());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const Message& round = parsed.value();
    EXPECT_EQ(round.method(), msg.method());
    EXPECT_EQ(round.request_uri(), msg.request_uri());
    EXPECT_EQ(round.vias(), msg.vias());
    EXPECT_EQ(round.from(), msg.from());
    EXPECT_EQ(round.to(), msg.to());
    EXPECT_EQ(round.call_id(), msg.call_id());
    EXPECT_EQ(round.cseq(), msg.cseq());
    EXPECT_EQ(round.max_forwards(), msg.max_forwards());
    EXPECT_EQ(round.routes(), msg.routes());
    EXPECT_EQ(round.record_routes(), msg.record_routes());
    EXPECT_EQ(round.body(), msg.body());
    // The reparse must be a fixed point of serialization.
    EXPECT_EQ(round.to_wire(), msg.to_wire());
  }
}

TEST(WirePropertyTest, OversizedViaChainSurvivesCommaCombinedForm) {
  // Some elements comma-combine Via headers (RFC 3261 7.3.1). Fold a
  // 9-deep stack into a single header line: the parser must split it back
  // into the identical stack, growing past the inline capacity.
  Message msg = make_invite();
  msg.pop_via();
  for (int i = 0; i < 9; ++i) {
    msg.push_via(Via{"SIP/2.0/UDP", "h" + std::to_string(i) + ".example.com",
                     "z9hG4bK-v" + std::to_string(i)});
  }
  const std::string wire = msg.to_wire();

  // Splice every "Via: ..." line into one comma-separated value, keeping
  // all other lines (request line first) in order.
  std::string combined;
  std::string rest;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t eol = wire.find("\r\n", pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string_view line(wire.data() + pos, eol - pos);
    if (line.substr(0, 4) == "Via:") {
      if (!combined.empty()) combined += ", ";
      combined += std::string(line.substr(5));
    } else {
      rest += std::string(line);
      rest += "\r\n";
    }
    pos = eol + 2;
  }
  const std::size_t after_request_line = rest.find("\r\n") + 2;
  const std::string rewired = rest.substr(0, after_request_line) + "Via: " +
                              combined + "\r\n" +
                              rest.substr(after_request_line);

  const auto parsed = Parser::parse(rewired);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().vias(), msg.vias());
}

TEST(WirePropertyTest, TruncatedDatagramsNeverCrashParser) {
  // Cut every generated wire at every byte offset. The parser must return
  // (an error or, for the rare self-delimiting prefix, a message) without
  // crashing or reading past the buffer; any accepted prefix must itself
  // round-trip cleanly.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const std::string wire = random_message(rng).to_wire();
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const auto parsed = Parser::parse(std::string_view(wire).substr(0, cut));
      if (parsed.ok()) {
        const auto again = Parser::parse(parsed.value().to_wire());
        ASSERT_TRUE(again.ok())
            << "accepted prefix (cut=" << cut << ") does not round-trip";
      }
    }
  }
}

TEST(WirePropertyTest, TornDatagramsNeverCrashParser) {
  // A torn datagram: a random interior span deleted (two fragments glued
  // together), as produced by a splitting sender or a corrupting path.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed ^ 0x7EA7);
    const std::string wire = random_message(rng).to_wire();
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t a = rng.uniform_int(wire.size());
      const std::size_t b = a + rng.uniform_int(wire.size() - a);
      std::string torn = wire.substr(0, a) + wire.substr(b);
      const auto parsed = Parser::parse(torn);
      if (parsed.ok()) {
        const auto again = Parser::parse(parsed.value().to_wire());
        ASSERT_TRUE(again.ok())
            << "accepted torn datagram [" << a << "," << b
            << ") does not round-trip";
      }
    }
  }
}

}  // namespace
}  // namespace svk::sip

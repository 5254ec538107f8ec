// Proxy-layer tests: location service, digest authentication, routing
// table, and the ProxyServer pipeline driven by raw wire exchanges.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "proxy/auth.hpp"
#include "proxy/location.hpp"
#include "proxy/proxy.hpp"
#include "proxy/routing.hpp"
#include "workload/scenarios.hpp"
#include "workload/testbed.hpp"
#include "workload/uas.hpp"

namespace svk::proxy {
namespace {

using sip::CSeq;
using sip::Message;
using sip::MessagePtr;
using sip::Method;
using sip::NameAddr;
using sip::Uri;
using sip::Via;
using workload::TestBed;
using workload::UasConfig;

// ---------------------------------------------------------------------------
// LocationService
// ---------------------------------------------------------------------------

TEST(LocationServiceTest, RegisterLookupUnregister) {
  // A registered AOR resolves to its contact; an unregistered one, a
  // same-user other domain and an expired binding do not.
  LocationService loc;
  loc.register_binding("user0@example.com", Uri("", "uas0.example.com"));
  const auto hit = loc.lookup_uri(Uri("user0", "example.com"), SimTime{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->contact.host(), "uas0.example.com");
  EXPECT_FALSE(
      loc.lookup_uri(Uri("ghost", "example.com"), SimTime{}).has_value());
  EXPECT_FALSE(
      loc.lookup_uri(Uri("user0", "example.org"), SimTime{}).has_value());
  loc.register_binding("user1@example.com", Uri("", "uas1.example.com"),
                       SimTime::seconds(2.0));
  EXPECT_TRUE(loc.lookup_uri(Uri("user1", "example.com"),
                             SimTime::seconds(2.0))
                  .has_value());
  EXPECT_FALSE(loc.lookup_uri(Uri("user1", "example.com"),
                              SimTime::seconds(3.0))
                   .has_value());
  EXPECT_EQ(loc.query_count(), 5u);
}

TEST(LocationServiceTest, ReRegisterReplacesBinding) {
  LocationService loc;
  loc.register_binding("u@d", Uri("", "old.host"));
  loc.register_binding("u@d", Uri("", "new.host"));
  EXPECT_EQ(loc.lookup_uri(Uri("u", "d"), SimTime{})->contact.host(),
            "new.host");
  EXPECT_EQ(loc.size(), 1u);
}

// ---------------------------------------------------------------------------
// DigestAuthenticator
// ---------------------------------------------------------------------------

TEST(DigestTest, Rfc2617ExampleVector) {
  // RFC 2617 section 3.5 example credentials, computed with the original
  // RFC 2069 response formula (no qop): MD5(HA1:nonce:HA2). Verified
  // against an independent implementation.
  const std::string response = DigestAuthenticator::compute_response(
      "Mufasa", "testrealm@host.com", "Circle Of Life",
      "dcd98b7102dd2f0e8b11d0f600bfb0c093", "GET", "/dir/index.html");
  EXPECT_EQ(response, "670fd8c2df070c60b045671b8b24ff02");
}

TEST(DigestTest, ParseAuthorizationHeader) {
  const auto creds = parse_digest(
      "Digest username=\"hal\", realm=\"ibm\", nonce=\"n1\", "
      "uri=\"sip:u@h\", response=\"abc\"");
  ASSERT_TRUE(creds.has_value());
  EXPECT_EQ(creds->username, "hal");
  EXPECT_EQ(creds->realm, "ibm");
  EXPECT_EQ(creds->nonce, "n1");
  EXPECT_EQ(creds->uri, "sip:u@h");
  EXPECT_EQ(creds->response, "abc");
}

TEST(DigestTest, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_digest("Basic dXNlcjpwYXNz").has_value());
  EXPECT_FALSE(parse_digest("Digest username=\"x\"").has_value());
  EXPECT_FALSE(parse_digest("").has_value());
}

Message make_request_with_auth(const DigestAuthenticator& auth,
                               const std::string& user,
                               const std::string& password) {
  Message msg = Message::request(
      Method::kInvite, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.com"), "t1"},
      NameAddr{"", Uri("bob", "example.com"), ""}, "c1",
      CSeq{1, Method::kInvite});
  msg.push_via(Via{"SIP/2.0/UDP", "client.com", "z9hG4bK-1"});
  msg.set_header(std::string(kProxyAuthorizationHeader),
                 DigestAuthenticator::make_authorization(
                     user, auth.realm(), password, auth.nonce(), "INVITE",
                     msg.request_uri().to_string()));
  return msg;
}

TEST(DigestTest, VerifyAcceptsValidCredentials) {
  DigestAuthenticator auth("realm1", "nonce1");
  auth.add_user("alice", "secret");
  EXPECT_TRUE(auth.verify(make_request_with_auth(auth, "alice", "secret")));
}

TEST(DigestTest, VerifyRejectsWrongPassword) {
  DigestAuthenticator auth("realm1", "nonce1");
  auth.add_user("alice", "secret");
  EXPECT_FALSE(auth.verify(make_request_with_auth(auth, "alice", "wrong")));
}

TEST(DigestTest, VerifyRejectsUnknownUserAndMissingHeader) {
  DigestAuthenticator auth("realm1", "nonce1");
  auth.add_user("alice", "secret");
  EXPECT_FALSE(auth.verify(make_request_with_auth(auth, "mallory", "x")));

  Message bare = Message::request(
      Method::kInvite, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.com"), "t1"},
      NameAddr{"", Uri("bob", "example.com"), ""}, "c1",
      CSeq{1, Method::kInvite});
  bare.push_via(Via{"SIP/2.0/UDP", "client.com", "z9hG4bK-1"});
  EXPECT_FALSE(auth.verify(bare));
}

TEST(DigestTest, VerifyRejectsForeignNonce) {
  DigestAuthenticator auth("realm1", "nonce1");
  DigestAuthenticator other("realm1", "nonce2");
  auth.add_user("alice", "secret");
  EXPECT_FALSE(auth.verify(make_request_with_auth(other, "alice", "secret")));
}

TEST(DigestTest, ChallengeCarriesRealmAndNonce) {
  DigestAuthenticator auth("myrealm", "mynonce");
  const std::string challenge = auth.challenge();
  EXPECT_NE(challenge.find("realm=\"myrealm\""), std::string::npos);
  EXPECT_NE(challenge.find("nonce=\"mynonce\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// RouteTable
// ---------------------------------------------------------------------------

TEST(RouteTableTest, SuffixMatchOnLabelBoundary) {
  RouteTable routes;
  routes.add_route("gatech.edu", {Address{10}});
  EXPECT_TRUE(routes.route(Uri("u", "cc.gatech.edu")).has_value());
  EXPECT_TRUE(routes.route(Uri("u", "gatech.edu")).has_value());
  EXPECT_FALSE(routes.route(Uri("u", "notgatech.edu")).has_value());
  EXPECT_FALSE(routes.route(Uri("u", "gatech.edu.evil.com")).has_value());
}

TEST(RouteTableTest, LongestSuffixWins) {
  RouteTable routes;
  routes.add_route("gatech.edu", {Address{10}});
  routes.add_route("cc.gatech.edu", {Address{20}});
  const auto hit = routes.route(Uri("u", "x.cc.gatech.edu"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->next_hop, Address{20});
}

TEST(RouteTableTest, LocalDeliveryPathIsNotDelegable) {
  RouteTable routes;
  routes.add_local("example.com");
  const auto hit = routes.route(Uri("u", "example.com"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->local);
  EXPECT_FALSE(routes.paths()[hit->path_index].delegable);
}

TEST(RouteTableTest, RoundRobinSplitsEvenly) {
  RouteTable routes;
  routes.add_route("example.com", {Address{1}, Address{2}});
  int to_1 = 0, to_2 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto hit = routes.route(Uri("u", "example.com"));
    ASSERT_TRUE(hit.has_value());
    (hit->next_hop == Address{1} ? to_1 : to_2)++;
  }
  EXPECT_EQ(to_1, 50);
  EXPECT_EQ(to_2, 50);
}

TEST(RouteTableTest, WeightedSplitViaDuplicateHops) {
  RouteTable routes;
  routes.add_route("example.com",
                   {Address{1}, Address{1}, Address{1}, Address{2}});
  int to_1 = 0;
  for (int i = 0; i < 100; ++i) {
    if (routes.route(Uri("u", "example.com"))->next_hop == Address{1}) {
      ++to_1;
    }
  }
  EXPECT_EQ(to_1, 75);
  // Duplicate hops share one path index.
  EXPECT_EQ(routes.paths().size(), 2u);
}

TEST(RouteTableTest, PathOfResolvesNeighbors) {
  RouteTable routes;
  routes.add_route("a.com", {Address{1}});
  routes.add_route("b.com", {Address{2}});
  routes.add_local("c.com");
  EXPECT_TRUE(routes.path_of(Address{1}).has_value());
  EXPECT_TRUE(routes.path_of(Address{2}).has_value());
  EXPECT_NE(routes.path_of(Address{1}), routes.path_of(Address{2}));
  EXPECT_FALSE(routes.path_of(Address{99}).has_value());
}

TEST(RouteTableTest, NoMatchReturnsNullopt) {
  RouteTable routes;
  routes.add_route("a.com", {Address{1}});
  EXPECT_FALSE(routes.route(Uri("u", "b.com")).has_value());
}

// ---------------------------------------------------------------------------
// ProxyServer pipeline (raw endpoint harness)
// ---------------------------------------------------------------------------

/// A scripted endpoint for poking the proxy with raw messages.
class RawHost {
 public:
  RawHost(TestBed& bed, const std::string& host)
      : bed_(bed), host_(host), addr_(bed.declare_host(host)) {
    bed_.network().attach(addr_,
                          [this](Address from, const MessagePtr& msg) {
                            inbox_.emplace_back(from, msg);
                          });
  }

  void send(Address to, const Message& msg) {
    bed_.network().send(addr_, to, clone(msg).finish());
  }

  [[nodiscard]] const std::string& host() const { return host_; }
  [[nodiscard]] Address address() const { return addr_; }
  [[nodiscard]] std::vector<std::pair<Address, MessagePtr>>& inbox() {
    return inbox_;
  }
  [[nodiscard]] int count_status(int code) const {
    int n = 0;
    for (const auto& [from, msg] : inbox_) {
      if (msg->is_response() && msg->status_code() == code) ++n;
    }
    return n;
  }
  [[nodiscard]] int count_method(Method method) const {
    int n = 0;
    for (const auto& [from, msg] : inbox_) {
      if (msg->is_request() && msg->method() == method) ++n;
    }
    return n;
  }

 private:
  TestBed& bed_;
  std::string host_;
  Address addr_;
  std::vector<std::pair<Address, MessagePtr>> inbox_;
};

struct ProxyFixtureOptions {
  profile::HandlingMode stateful_mode =
      profile::HandlingMode::kTransactionStateful;
  bool stateful_policy = true;
  bool authenticate = false;
  double capacity = profile::CpuCostModel::kCalibratedCapacity;
  SimTime max_queue_delay = SimTime::millis(200);
};

/// One proxy ("proxy0.test") delivering example.com locally to a scripted
/// UAS host, poked by a scripted client.
class ProxyPipelineTest : public ::testing::Test {
 protected:
  void build(const ProxyFixtureOptions& options) {
    bed = std::make_unique<TestBed>(7);
    client = std::make_unique<RawHost>(*bed, "client.test");
    uas_host = std::make_unique<RawHost>(*bed, "uas0.example.com");

    RouteTable routes;
    routes.add_local("example.com");
    ProxyConfig config;
    config.host = "proxy0.test";
    config.cpu_capacity = options.capacity;
    config.max_queue_delay = options.max_queue_delay;
    config.stateful_mode = options.stateful_mode;
    config.authenticate = options.authenticate;
    std::unique_ptr<StatePolicy> policy;
    if (options.stateful_policy) {
      policy = std::make_unique<AlwaysStateful>();
    } else {
      policy = std::make_unique<AlwaysStateless>();
    }
    proxy = &bed->add_proxy(std::move(config), std::move(routes),
                            std::move(policy));
    if (options.authenticate) {
      proxy->authenticator().add_user("alice", "secret");
    }
    bed->location()->register_binding("bob@example.com",
                                      Uri("", "uas0.example.com"));
  }

  Message make_invite(const std::string& call_id = "c1",
                      const std::string& branch = "z9hG4bK-t1") {
    Message msg = Message::request(
        Method::kInvite, Uri("bob", "example.com"),
        NameAddr{"", Uri("alice", "client.test"), "tag-a"},
        NameAddr{"", Uri("bob", "example.com"), ""}, call_id,
        CSeq{1, Method::kInvite});
    msg.push_via(Via{"SIP/2.0/UDP", "client.test", branch});
    return msg;
  }

  std::unique_ptr<TestBed> bed;
  std::unique_ptr<RawHost> client;
  std::unique_ptr<RawHost> uas_host;
  ProxyServer* proxy = nullptr;
};

TEST_F(ProxyPipelineTest, StatefulForwardGenerates100AndMarks) {
  build({});
  client->send(proxy->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(100));

  EXPECT_EQ(client->count_status(100), 1);      // proxy-generated Trying
  ASSERT_EQ(uas_host->count_method(Method::kInvite), 1);
  const MessagePtr& fwd = uas_host->inbox().front().second;
  EXPECT_EQ(fwd->header(kStatefulMarkHeader), "proxy0.test");
  EXPECT_EQ(fwd->vias().size(), 2u);            // proxy pushed its Via
  EXPECT_EQ(fwd->top_via().sent_by, "proxy0.test");
  EXPECT_EQ(fwd->max_forwards(), 69);
  // Request-URI retargeted to the registered contact.
  EXPECT_EQ(fwd->request_uri().host(), "uas0.example.com");
  EXPECT_EQ(proxy->stats().forwarded_stateful, 1u);
}

TEST_F(ProxyPipelineTest, StatelessForwardNo100NoMark) {
  build({.stateful_policy = false});
  client->send(proxy->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(100));

  EXPECT_EQ(client->count_status(100), 0);
  ASSERT_EQ(uas_host->count_method(Method::kInvite), 1);
  const MessagePtr& fwd = uas_host->inbox().front().second;
  EXPECT_FALSE(fwd->header(kStatefulMarkHeader).has_value());
  EXPECT_EQ(proxy->stats().forwarded_stateless, 1u);
}

TEST_F(ProxyPipelineTest, StatefulAbsorbsRetransmission) {
  build({});
  const Message invite = make_invite();
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(50));
  client->send(proxy->config().address, invite);  // same branch: retransmit
  bed->sim().run_until(SimTime::millis(100));

  EXPECT_EQ(uas_host->count_method(Method::kInvite), 1);  // absorbed
  EXPECT_EQ(proxy->stats().absorbed_retransmits, 1u);
  EXPECT_EQ(client->count_status(100), 2);  // 100 replayed to the client
}

TEST_F(ProxyPipelineTest, StatelessForwardsRetransmissionDownstream) {
  build({.stateful_policy = false});
  const Message invite = make_invite();
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(50));
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));

  EXPECT_EQ(uas_host->count_method(Method::kInvite), 2);
  // Deterministic stateless branch: both copies carry the same branch.
  EXPECT_EQ(uas_host->inbox()[0].second->top_via().branch,
            uas_host->inbox()[1].second->top_via().branch);
}

TEST_F(ProxyPipelineTest, ResponseRelayedUpstreamThroughServerTxn) {
  build({});
  client->send(proxy->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));
  ASSERT_EQ(uas_host->count_method(Method::kInvite), 1);

  // UAS answers 180: the proxy pops its Via and relays to the client.
  const MessagePtr& fwd = uas_host->inbox().front().second;
  Message ringing = Message::response(*fwd, 180);
  ringing.to().tag = "tag-b";
  uas_host->send(proxy->config().address, ringing);
  bed->sim().run_until(SimTime::millis(100));

  EXPECT_EQ(client->count_status(180), 1);
  for (const auto& [from, msg] : client->inbox()) {
    if (msg->is_response() && msg->status_code() == 180) {
      EXPECT_EQ(msg->vias().size(), 1u);
      EXPECT_EQ(msg->top_via().sent_by, "client.test");
    }
  }
}

TEST_F(ProxyPipelineTest, UnknownUserGets404) {
  build({});
  Message invite = make_invite();
  invite.set_request_uri(Uri("ghost", "example.com"));
  invite.to().uri = invite.request_uri();
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(404), 1);
  EXPECT_EQ(proxy->stats().route_failures, 1u);
}

TEST_F(ProxyPipelineTest, UnroutableDomainGets404) {
  build({});
  Message invite = make_invite();
  invite.set_request_uri(Uri("bob", "elsewhere.org"));
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(404), 1);
}

TEST_F(ProxyPipelineTest, MaxForwardsZeroGets483) {
  build({});
  Message invite = make_invite();
  invite.set_max_forwards(0);
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(483), 1);
  EXPECT_EQ(uas_host->count_method(Method::kInvite), 0);
  EXPECT_EQ(proxy->stats().rejected_483, 1u);
}

TEST_F(ProxyPipelineTest, MaxForwardsOneIsForwardedCarryingZero) {
  // RFC 3261 16.3 step 4: exhaustion means the request *arrived* with 0.
  // A request arriving with 1 must still be forwarded (carrying 0) — the
  // historical check-after-decrement rejected it one hop early.
  build({});
  Message invite = make_invite();
  invite.set_max_forwards(1);
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(483), 0);
  ASSERT_EQ(uas_host->count_method(Method::kInvite), 1);
  EXPECT_EQ(uas_host->inbox().front().second->max_forwards(), 0);
  EXPECT_EQ(proxy->stats().rejected_483, 0u);
}

TEST_F(ProxyPipelineTest, CancelWithExhaustedMaxForwardsGets483NotDropped) {
  // A CANCEL that arrives hop-count-exhausted (and matches no local INVITE
  // leg) must be answered 483 so the canceller's client transaction
  // completes; the old path silently dropped it and the canceller timed
  // out after 64*T1.
  build({.stateful_policy = false});
  Message cancel = Message::request(
      Method::kCancel, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.test"), "tag-a"},
      NameAddr{"", Uri("bob", "example.com"), ""}, "c-cancel",
      CSeq{1, Method::kCancel});
  cancel.push_via(Via{"SIP/2.0/UDP", "client.test", "z9hG4bK-c1"});
  cancel.set_max_forwards(0);
  client->send(proxy->config().address, cancel);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(483), 1);
  EXPECT_EQ(uas_host->count_method(Method::kCancel), 0);
  EXPECT_EQ(proxy->stats().rejected_483, 1u);
}

TEST_F(ProxyPipelineTest, AuthMissingCredentialsGets407) {
  build({.authenticate = true});
  client->send(proxy->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(407), 1);
  EXPECT_EQ(proxy->stats().auth_failures, 1u);
}

TEST_F(ProxyPipelineTest, AuthBadCredentialsGets403) {
  build({.authenticate = true});
  Message invite = make_invite();
  invite.set_header(std::string(kProxyAuthorizationHeader),
                    DigestAuthenticator::make_authorization(
                        "alice", "proxy0.test", "wrongpass",
                        "nonce-proxy0.test", "INVITE",
                        invite.request_uri().to_string()));
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(client->count_status(403), 1);
}

TEST_F(ProxyPipelineTest, AuthGoodCredentialsForwarded) {
  build({.authenticate = true});
  Message invite = make_invite();
  invite.set_header(std::string(kProxyAuthorizationHeader),
                    DigestAuthenticator::make_authorization(
                        "alice", "proxy0.test", "secret",
                        "nonce-proxy0.test", "INVITE",
                        invite.request_uri().to_string()));
  client->send(proxy->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(uas_host->count_method(Method::kInvite), 1);
  EXPECT_EQ(proxy->stats().auth_failures, 0u);
}

TEST_F(ProxyPipelineTest, SaturatedProxySends500) {
  // A proxy with ~1000 events/s capacity takes seconds per message; the
  // queue-delay bound trips immediately after the first few admissions.
  build({.capacity = 1000.0, .max_queue_delay = SimTime::millis(200)});
  for (int i = 0; i < 10; ++i) {
    client->send(proxy->config().address,
                 make_invite("c" + std::to_string(i),
                             "z9hG4bK-t" + std::to_string(i)));
  }
  bed->sim().run_until(SimTime::seconds(2.0));
  EXPECT_GT(client->count_status(500), 0);
  EXPECT_GT(proxy->stats().rejected_busy, 0u);
}

TEST_F(ProxyPipelineTest, DialogStatefulInsertsRecordRouteAndTracksDialogs) {
  build({.stateful_mode = profile::HandlingMode::kDialogStateful});
  client->send(proxy->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));
  ASSERT_EQ(uas_host->count_method(Method::kInvite), 1);
  const MessagePtr& fwd = uas_host->inbox().front().second;
  ASSERT_EQ(fwd->record_routes().size(), 1u);
  EXPECT_EQ(fwd->record_routes()[0].host(), "proxy0.test");
  EXPECT_EQ(proxy->dialogs().active_count(), 1u);

  // 200 confirms the dialog.
  Message ok = Message::response(*fwd, 200);
  ok.to().tag = "tag-b";
  ok.set_contact(NameAddr{"", Uri("", "uas0.example.com"), ""});
  uas_host->send(proxy->config().address, ok);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(proxy->dialogs().active_count(), 1u);
  EXPECT_EQ(client->count_status(200), 1);
}

TEST_F(ProxyPipelineTest, ControlMessageNotForwarded) {
  build({});
  Message options = Message::request(
      Method::kOptions, Uri("overload", "proxy0.test"),
      NameAddr{"", Uri("control", "x.test"), "t"},
      NameAddr{"", Uri("control", "proxy0.test"), ""}, "ovl-1",
      CSeq{1, Method::kOptions});
  options.push_via(Via{"SIP/2.0/UDP", "client.test", "z9hG4bK-ovl"});
  options.set_header(std::string(kOverloadHeader), "on;rate=100.0");
  client->send(proxy->config().address, options);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(proxy->stats().overload_signals_received, 1u);
  EXPECT_EQ(uas_host->count_method(Method::kOptions), 0);
}

TEST_F(ProxyPipelineTest, AckForwardedEndToEndWithoutTransaction) {
  build({});
  client->send(proxy->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));

  Message ack = Message::request(
      Method::kAck, Uri("bob", "uas0.example.com"),
      NameAddr{"", Uri("alice", "client.test"), "tag-a"},
      NameAddr{"", Uri("bob", "example.com"), "tag-b"}, "c1",
      CSeq{1, Method::kAck});
  ack.push_via(Via{"SIP/2.0/UDP", "client.test", "z9hG4bK-ack"});
  client->send(proxy->config().address, ack);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(uas_host->count_method(Method::kAck), 1);
}

TEST_F(ProxyPipelineTest, RouteHeaderPreferredOverRequestUri) {
  build({});
  // Request whose Route set names our proxy then the UAS host; the
  // request-URI points at an unroutable domain and must be ignored for
  // next-hop selection.
  Message bye = Message::request(
      Method::kBye, Uri("bob", "unroutable.org"),
      NameAddr{"", Uri("alice", "client.test"), "tag-a"},
      NameAddr{"", Uri("bob", "example.com"), "tag-b"}, "c1",
      CSeq{2, Method::kBye});
  bye.push_via(Via{"SIP/2.0/UDP", "client.test", "z9hG4bK-bye"});
  bye.mutable_routes().push_back(Uri("", "proxy0.test"));
  bye.mutable_routes().push_back(Uri("", "uas0.example.com"));
  client->send(proxy->config().address, bye);
  bed->sim().run_until(SimTime::millis(100));
  ASSERT_EQ(uas_host->count_method(Method::kBye), 1);
  // Our own Route entry was stripped; the next one remains.
  ASSERT_EQ(uas_host->inbox().front().second->routes().size(), 1u);
  EXPECT_EQ(uas_host->inbox().front().second->routes()[0].host(),
            "uas0.example.com");
}

// ---------------------------------------------------------------------------
// CPU accounting
// ---------------------------------------------------------------------------

// Every CPU submission is charged to the profiler, control-plane sends
// (overload signals, status replies, probes) included, so the Figure 3
// instrument agrees with the CPU queue's admitted work.
TEST(ProxyCpuAccountingTest, ProfilerMatchesCpuQueuePastSaturation) {
  workload::ScenarioOptions options;
  options.policy = workload::PolicyKind::kServartuka;
  options.capacity_scale = {0.01, 0.01};
  options.controller_period = SimTime::seconds(0.5);
  auto bed = workload::series_chain(2, options)(140.0);  // past the knee
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(10.0));

  std::uint64_t control_sends = 0;
  for (const auto& node : bed->proxies()) {
    control_sends += node->stats().overload_signals_sent +
                     node->stats().overload_probes_sent;
    const double spent = node->cpu().stats().total_cost;
    ASSERT_GT(spent, 0.0);
    EXPECT_NEAR(node->profiler().totals().total(), spent, 1e-9 * spent)
        << node->config().host;
  }
  EXPECT_GT(control_sends, 0u);
}

}  // namespace
}  // namespace svk::proxy

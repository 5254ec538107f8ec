// Tests for call cancellation (CANCEL through stateful and stateless
// proxies) and for routing to a callee the location service does not know.
#include <gtest/gtest.h>

#include <memory>

#include "proxy/proxy.hpp"
#include "workload/testbed.hpp"
#include "workload/uac.hpp"
#include "workload/uas.hpp"

namespace svk::workload {
namespace {

using proxy::ProxyConfig;
using proxy::RouteTable;

/// One proxy serving example.com locally, the registrar of its location
/// service; a UAS and a UAC. No binding is pre-provisioned: each test
/// installs the ones it needs.
class RegistrarFixture : public ::testing::Test {
 protected:
  void build(bool stateful = true, SimTime answer_delay = SimTime{}) {
    bed = std::make_unique<TestBed>(5);
    proxy_addr = bed->declare_host("proxy0.test");
    RouteTable routes;
    routes.add_local("example.com");
    ProxyConfig config;
    config.host = "proxy0.test";
    std::unique_ptr<proxy::StatePolicy> policy;
    if (stateful) {
      policy = std::make_unique<proxy::AlwaysStateful>();
    } else {
      policy = std::make_unique<proxy::AlwaysStateless>();
    }
    proxy = &bed->add_proxy(std::move(config), std::move(routes),
                            std::move(policy));
    UasConfig uas_config;
    uas_config.host = "uas0.example.com";
    uas_config.answer_delay = answer_delay;
    uas = &bed->add_uas(uas_config);
  }

  Uac& add_caller(double rate, double cancel_probability = 0.0,
                  SimTime abandon_after = SimTime::seconds(2.0)) {
    UacConfig config;
    config.host = "uac0.client.test";
    config.first_hop = proxy_addr;
    config.target_domain = "example.com";
    config.num_callees = 1;  // user0@example.com
    config.call_rate_cps = rate;
    config.cancel_probability = cancel_probability;
    config.ring_abandon_after = abandon_after;
    return bed->add_uac(std::move(config));
  }

  std::unique_ptr<TestBed> bed;
  Address proxy_addr;
  proxy::ProxyServer* proxy = nullptr;
  Uas* uas = nullptr;
};

// ---------------------------------------------------------------------------
// Routing without a binding
// ---------------------------------------------------------------------------

TEST_F(RegistrarFixture, UnregisteredUserGets404) {
  build();
  Uac& uac = add_caller(10.0);
  uac.start();
  bed->sim().run_until(SimTime::seconds(2.0));
  EXPECT_EQ(uac.metrics().calls_completed, 0u);
  EXPECT_GT(uac.metrics().calls_failed, 10u);
  EXPECT_GT(proxy->stats().route_failures, 10u);
}

// ---------------------------------------------------------------------------
// CANCEL
// ---------------------------------------------------------------------------

TEST_F(RegistrarFixture, CancelThroughStatefulProxy) {
  build(/*stateful=*/true, /*answer_delay=*/SimTime::seconds(5.0));
  bed->location()->register_binding("user0@example.com",
                                    sip::Uri("", "uas0.example.com"));
  Uac& uac = add_caller(10.0, /*cancel_probability=*/1.0,
                        /*abandon_after=*/SimTime::millis(500));
  uac.start();
  bed->sim().run_until(SimTime::seconds(5.0));

  EXPECT_GT(uac.metrics().calls_cancelled, 30u);
  EXPECT_EQ(uac.metrics().calls_established, 0u);
  EXPECT_EQ(uac.metrics().calls_failed, 0u);
  EXPECT_EQ(uas->metrics().cancels_received,
            uac.metrics().calls_cancelled);
  EXPECT_EQ(uas->metrics().calls_established, 0u);
  // Open calls drain: the 487s terminated every INVITE transaction.
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(10.0));
  EXPECT_EQ(uac.open_calls(), 0u);
}

TEST_F(RegistrarFixture, CancelThroughStatelessProxy) {
  build(/*stateful=*/false, /*answer_delay=*/SimTime::seconds(5.0));
  bed->location()->register_binding("user0@example.com",
                                    sip::Uri("", "uas0.example.com"));
  Uac& uac = add_caller(10.0, 1.0, SimTime::millis(500));
  uac.start();
  bed->sim().run_until(SimTime::seconds(5.0));

  // The deterministic stateless branch lets the CANCEL match the INVITE
  // at the UAS even though the proxy kept no state.
  EXPECT_GT(uac.metrics().calls_cancelled, 30u);
  EXPECT_EQ(uas->metrics().cancels_received,
            uac.metrics().calls_cancelled);
  EXPECT_EQ(uac.metrics().calls_failed, 0u);
}

TEST_F(RegistrarFixture, CancelLosesRaceWhenAnswerIsImmediate) {
  build(/*stateful=*/true, /*answer_delay=*/SimTime{});
  bed->location()->register_binding("user0@example.com",
                                    sip::Uri("", "uas0.example.com"));
  // Abandon "after 500ms" — but calls answer in ~2ms, so CANCEL never
  // fires (send_cancel sees the call established).
  Uac& uac = add_caller(10.0, 1.0, SimTime::millis(500));
  uac.start();
  bed->sim().run_until(SimTime::seconds(5.0));
  EXPECT_EQ(uac.metrics().calls_cancelled, 0u);
  EXPECT_GT(uac.metrics().calls_completed, 30u);
  EXPECT_EQ(uas->metrics().cancels_received, 0u);
}

TEST_F(RegistrarFixture, MixedCancelAndCompleteTraffic) {
  build(/*stateful=*/true, /*answer_delay=*/SimTime::millis(800));
  bed->location()->register_binding("user0@example.com",
                                    sip::Uri("", "uas0.example.com"));
  // Half the calls abandon before the 800ms answer.
  Uac& uac = add_caller(20.0, 0.5, SimTime::millis(400));
  uac.start();
  bed->sim().run_until(SimTime::seconds(10.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(15.0));

  EXPECT_GT(uac.metrics().calls_cancelled, 50u);
  EXPECT_GT(uac.metrics().calls_completed, 50u);
  EXPECT_EQ(uac.metrics().calls_failed, 0u);
  EXPECT_EQ(uac.metrics().calls_attempted,
            uac.metrics().calls_completed + uac.metrics().calls_cancelled);
  EXPECT_EQ(uac.open_calls(), 0u);
}

TEST_F(RegistrarFixture, RingingCallsHoldTransactionStateAtProxy) {
  build(/*stateful=*/true, /*answer_delay=*/SimTime::seconds(3.0));
  bed->location()->register_binding("user0@example.com",
                                    sip::Uri("", "uas0.example.com"));
  Uac& uac = add_caller(10.0);
  uac.start();
  bed->sim().run_until(SimTime::seconds(2.0));
  // ~20 calls ringing: proxy holds a server+client transaction pair each.
  EXPECT_GT(proxy->transactions().active_count(), 20u);
  bed->sim().run_until(SimTime::seconds(20.0));
  EXPECT_GT(uac.metrics().calls_completed, 100u);
}

}  // namespace
}  // namespace svk::workload

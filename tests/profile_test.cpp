// Tests for the calibrated cost model: the Figure 3 per-call totals, the
// Figure 4 saturation anchors, monotonicity across service richness, and
// the profiler accounting.
#include <gtest/gtest.h>

#include "profile/cost_model.hpp"
#include "profile/profiler.hpp"
#include "sip/message.hpp"

namespace svk::profile {
namespace {

using enum HandlingMode;

// ---------------------------------------------------------------------------
// CostVector
// ---------------------------------------------------------------------------

TEST(CostVectorTest, TotalsAndApplicationTotals) {
  CostVector v;
  v[CostBlock::kParsing] = 10.0;
  v[CostBlock::kTransport] = 175.0;
  EXPECT_DOUBLE_EQ(v.total(), 185.0);
  EXPECT_DOUBLE_EQ(v.application_total(), 10.0);
}

TEST(CostVectorTest, Accumulation) {
  CostVector a;
  a[CostBlock::kState] = 5.0;
  CostVector b;
  b[CostBlock::kState] = 7.0;
  b[CostBlock::kAuth] = 1.0;
  a += b;
  EXPECT_DOUBLE_EQ(a[CostBlock::kState], 12.0);
  EXPECT_DOUBLE_EQ(a[CostBlock::kAuth], 1.0);
}

// ---------------------------------------------------------------------------
// Figure 3 calibration: per-call application events by mode
// ---------------------------------------------------------------------------

TEST(CostModelTest, Figure3PerCallTotals) {
  EXPECT_DOUBLE_EQ(CpuCostModel::per_call_application_events(
                       kStatelessNoLookup), 362.0);
  EXPECT_DOUBLE_EQ(CpuCostModel::per_call_application_events(kStateless),
                   412.0);
  EXPECT_DOUBLE_EQ(
      CpuCostModel::per_call_application_events(kTransactionStateful),
      707.0);
  EXPECT_DOUBLE_EQ(CpuCostModel::per_call_application_events(kDialogStateful),
                   803.0);
  EXPECT_DOUBLE_EQ(
      CpuCostModel::per_call_application_events(kDialogStatefulAuth), 983.0);
}

TEST(CostModelTest, PaperCostRatios) {
  // Section 3.1: dialog-stateful ~2x, transaction-stateful ~1.75x stateless.
  const double stateless = CpuCostModel::per_call_application_events(kStateless);
  EXPECT_NEAR(CpuCostModel::per_call_application_events(kDialogStateful) /
                  stateless, 2.0, 0.06);
  EXPECT_NEAR(
      CpuCostModel::per_call_application_events(kTransactionStateful) /
          stateless, 1.75, 0.04);
}

TEST(CostModelTest, MonotoneAcrossServiceRichness) {
  const HandlingMode order[] = {kStatelessNoLookup, kStateless,
                                kTransactionStateful, kDialogStateful,
                                kDialogStatefulAuth};
  for (int i = 1; i < 5; ++i) {
    EXPECT_LT(CpuCostModel::per_call_application_events(order[i - 1]),
              CpuCostModel::per_call_application_events(order[i]));
  }
}

class BlockMonotoneTest : public ::testing::TestWithParam<CostBlock> {};

TEST_P(BlockMonotoneTest, BlockCostsNeverDecreaseWithRicherService) {
  const CostBlock block = GetParam();
  const HandlingMode order[] = {kStatelessNoLookup, kStateless,
                                kTransactionStateful, kDialogStateful,
                                kDialogStatefulAuth};
  const MsgKind kinds[] = {MsgKind::kInvite,    MsgKind::kProvisional,
                           MsgKind::kInvite200, MsgKind::kAck,
                           MsgKind::kBye,       MsgKind::kBye200};
  for (int i = 1; i < 5; ++i) {
    double prev = 0.0, curr = 0.0;
    for (const MsgKind kind : kinds) {
      prev += CpuCostModel::forward(order[i - 1], kind)[block];
      curr += CpuCostModel::forward(order[i], kind)[block];
    }
    EXPECT_LE(prev, curr) << to_string(block) << " between modes " << i - 1
                          << " and " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBlocks, BlockMonotoneTest,
    ::testing::Values(CostBlock::kParsing, CostBlock::kMemory,
                      CostBlock::kLumping, CostBlock::kRouting,
                      CostBlock::kHashing, CostBlock::kLookup,
                      CostBlock::kState, CostBlock::kAuth, CostBlock::kOther));

TEST(CostModelTest, StateCostsOnlyInStatefulModes) {
  EXPECT_EQ(CpuCostModel::forward(kStateless, MsgKind::kInvite)
                [CostBlock::kState], 0.0);
  EXPECT_GT(CpuCostModel::forward(kTransactionStateful, MsgKind::kInvite)
                [CostBlock::kState], 0.0);
}

TEST(CostModelTest, LookupOnlyWithLookupModes) {
  EXPECT_EQ(CpuCostModel::forward(kStatelessNoLookup, MsgKind::kInvite)
                [CostBlock::kLookup], 0.0);
  EXPECT_GT(CpuCostModel::forward(kStateless, MsgKind::kInvite)
                [CostBlock::kLookup], 0.0);
}

TEST(CostModelTest, AuthCostsOnlyInAuthMode) {
  EXPECT_EQ(CpuCostModel::forward(kDialogStateful, MsgKind::kInvite)
                [CostBlock::kAuth], 0.0);
  EXPECT_GT(CpuCostModel::forward(kDialogStatefulAuth, MsgKind::kInvite)
                [CostBlock::kAuth], 0.0);
  EXPECT_GT(CpuCostModel::forward(kDialogStatefulAuth, MsgKind::kBye)
                [CostBlock::kAuth], 0.0);
}

// ---------------------------------------------------------------------------
// Figure 4 calibration: saturation anchors
// ---------------------------------------------------------------------------

TEST(CostModelTest, Figure4SaturationAnchors) {
  EXPECT_NEAR(CpuCostModel::saturation_cps(kStateless), 12300.0, 1.0);
  EXPECT_NEAR(CpuCostModel::saturation_cps(kTransactionStateful), 10360.0,
              5.0);
}

TEST(CostModelTest, SaturationScalesWithCapacity) {
  const double base = CpuCostModel::saturation_cps(kStateless);
  EXPECT_NEAR(CpuCostModel::saturation_cps(
                  kStateless, CpuCostModel::kCalibratedCapacity * 2.0),
              2.0 * base, 1.0);
}

TEST(CostModelTest, SaturationOrderingMatchesCostOrdering) {
  EXPECT_GT(CpuCostModel::saturation_cps(kStatelessNoLookup),
            CpuCostModel::saturation_cps(kStateless));
  EXPECT_GT(CpuCostModel::saturation_cps(kStateless),
            CpuCostModel::saturation_cps(kTransactionStateful));
  EXPECT_GT(CpuCostModel::saturation_cps(kTransactionStateful),
            CpuCostModel::saturation_cps(kDialogStateful));
  EXPECT_GT(CpuCostModel::saturation_cps(kDialogStateful),
            CpuCostModel::saturation_cps(kDialogStatefulAuth));
}

TEST(CostModelTest, TransportChargedPerMessageEvent) {
  // forward = one receive; transport_send = one send.
  EXPECT_DOUBLE_EQ(CpuCostModel::forward(kStateless, MsgKind::kInvite)
                       [CostBlock::kTransport],
                   CpuCostModel::kTransportPerMessage);
  EXPECT_DOUBLE_EQ(CpuCostModel::transport_send().total(),
                   CpuCostModel::kTransportPerMessage);
}

TEST(CostModelTest, AbsorbIsMuchCheaperThanForward) {
  // Application-level work of an absorb is a fraction of a full stateful
  // forward (the fixed transport cost applies to both equally).
  EXPECT_LT(CpuCostModel::absorb_retransmit().application_total(),
            0.25 * CpuCostModel::forward(kTransactionStateful,
                                         MsgKind::kInvite)
                       .application_total());
}

// ---------------------------------------------------------------------------
// Message classification
// ---------------------------------------------------------------------------

TEST(ClassifyTest, RequestsAndResponses) {
  using sip::CSeq;
  using sip::Message;
  using sip::Method;
  using sip::NameAddr;
  using sip::Uri;
  Message invite = Message::request(
      Method::kInvite, Uri("u", "h"), NameAddr{"", Uri("a", "x"), "t"},
      NameAddr{"", Uri("b", "y"), ""}, "c", CSeq{1, Method::kInvite});
  EXPECT_EQ(classify(invite), MsgKind::kInvite);

  EXPECT_EQ(classify(Message::response(invite, 180)), MsgKind::kProvisional);
  EXPECT_EQ(classify(Message::response(invite, 200)), MsgKind::kInvite200);

  Message bye = Message::request(
      Method::kBye, Uri("u", "h"), NameAddr{"", Uri("a", "x"), "t"},
      NameAddr{"", Uri("b", "y"), "t2"}, "c", CSeq{2, Method::kBye});
  EXPECT_EQ(classify(bye), MsgKind::kBye);
  EXPECT_EQ(classify(Message::response(bye, 200)), MsgKind::kBye200);

  Message ack = Message::request(
      Method::kAck, Uri("u", "h"), NameAddr{"", Uri("a", "x"), "t"},
      NameAddr{"", Uri("b", "y"), "t2"}, "c", CSeq{1, Method::kAck});
  EXPECT_EQ(classify(ack), MsgKind::kAck);

  Message options = Message::request(
      Method::kOptions, Uri("u", "h"), NameAddr{"", Uri("a", "x"), "t"},
      NameAddr{"", Uri("b", "y"), ""}, "c", CSeq{1, Method::kOptions});
  EXPECT_EQ(classify(options), MsgKind::kOther);
}

// ---------------------------------------------------------------------------
// CpuProfiler
// ---------------------------------------------------------------------------

TEST(ProfilerTest, AccumulatesCharges) {
  CpuProfiler profiler;
  profiler.charge(CpuCostModel::forward(kStateless, MsgKind::kInvite));
  profiler.charge(CpuCostModel::forward(kStateless, MsgKind::kBye));
  EXPECT_GT(profiler.application_events(), 0.0);
  EXPECT_GT(profiler.events(CostBlock::kParsing), 0.0);
  EXPECT_DOUBLE_EQ(profiler.events(CostBlock::kTransport),
                   2.0 * CpuCostModel::kTransportPerMessage);
}

TEST(ProfilerTest, ResetClears) {
  CpuProfiler profiler;
  profiler.charge(CpuCostModel::forward(kStateless, MsgKind::kInvite));
  profiler.reset();
  EXPECT_DOUBLE_EQ(profiler.application_events(), 0.0);
}

TEST(ProfilerTest, PerCallWorkSumsToFigure3Bar) {
  // Charging the full message set of one call reproduces the Figure 3 bar.
  CpuProfiler profiler;
  const MsgKind kinds[] = {MsgKind::kInvite,    MsgKind::kProvisional,
                           MsgKind::kInvite200, MsgKind::kAck,
                           MsgKind::kBye,       MsgKind::kBye200};
  for (const MsgKind kind : kinds) {
    profiler.charge(CpuCostModel::forward(kTransactionStateful, kind));
  }
  profiler.charge(CpuCostModel::generate_100(kTransactionStateful));
  EXPECT_DOUBLE_EQ(profiler.application_events(), 707.0);
}

}  // namespace
}  // namespace svk::profile

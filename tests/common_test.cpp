// Unit tests for the common support library: SimTime, StrongId, Result,
// Rng, statistics and MD5.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "common/md5.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/run_record.hpp"
#include "common/sim_time.hpp"
#include "common/small_vector.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace svk {
namespace {

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

TEST(SimTimeTest, ConstructorsAgree) {
  EXPECT_EQ(SimTime::millis(1), SimTime::micros(1000));
  EXPECT_EQ(SimTime::micros(1), SimTime::nanos(1000));
  EXPECT_EQ(SimTime::seconds(1.0), SimTime::millis(1000));
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::millis(500);
  const SimTime b = SimTime::millis(250);
  EXPECT_EQ((a + b).to_millis(), 750.0);
  EXPECT_EQ((a - b).to_millis(), 250.0);
  EXPECT_EQ((2 * a).to_seconds(), 1.0);
  EXPECT_EQ((a * 4).to_seconds(), 2.0);
}

TEST(SimTimeTest, CompoundAssignment) {
  SimTime t;
  t += SimTime::seconds(1.5);
  t -= SimTime::millis(500);
  EXPECT_EQ(t, SimTime::seconds(1.0));
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_GT(SimTime::seconds(1.0), SimTime::micros(999999));
  EXPECT_LE(SimTime{}, SimTime{});
}

TEST(SimTimeTest, DefaultIsZero) {
  EXPECT_EQ(SimTime{}.ns(), 0);
  EXPECT_EQ(SimTime{}.to_seconds(), 0.0);
}

TEST(SimTimeTest, MaxActsAsNever) {
  EXPECT_GT(SimTime::max(), SimTime::seconds(1e9));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::seconds(1.5).to_string(), "1.500s");
  EXPECT_EQ(SimTime::millis(250).to_string(), "250.000ms");
  EXPECT_EQ(SimTime::micros(10).to_string(), "10.000us");
  EXPECT_EQ(SimTime::nanos(42).to_string(), "42ns");
}

// ---------------------------------------------------------------------------
// StrongId
// ---------------------------------------------------------------------------

TEST(StrongIdTest, EqualityAndOrdering) {
  const Address a{1};
  const Address b{2};
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(Address{1}, a);
}

TEST(StrongIdTest, DistinctTagTypesDoNotMix) {
  // Compile-time property: Address and NodeId are unrelated types.
  static_assert(!std::is_convertible_v<Address, NodeId>);
  static_assert(!std::is_same_v<Address, NodeId>);
}

TEST(StrongIdTest, Hashable) {
  std::set<Address> set;
  std::hash<Address> hasher;
  EXPECT_EQ(hasher(Address{7}), hasher(Address{7}));
  set.insert(Address{1});
  set.insert(Address{1});
  EXPECT_EQ(set.size(), 1u);
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  const Result<int> r = make_error("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, UniformIntInRangeAndRoughlyUniform) {
  Rng rng(13);
  std::vector<int> buckets(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, kN / 10, kN / 100);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(RngTest, SplitStreamsDecorrelated) {
  Rng parent(31);
  Rng child1 = parent.split(1);
  Rng child2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.next() == child2.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ZeroSeedIsNotDegenerate) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 16; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 16u);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, QuantilesOfUniformData) {
  Histogram h(100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(10.0, 10);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.quantile(1.0), 10.0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h(10.0, 10);
  h.add(2.0);
  h.add(4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h(10.0, 10);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h(10.0, 10);
  h.add(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

// Regression: quantile() used to return the left edge of an *empty* bin
// whenever the cumulative count already met the target there (q=0 with no
// mass in bin 0 being the simplest case), instead of skipping ahead to the
// next populated bin.
TEST(HistogramTest, QuantileSkipsEmptyLeadingBins) {
  Histogram h(100.0, 10);
  h.add(55.0);
  h.add(57.0);
  // All mass lives in [50,60); q=0 must land there, not at 0.0.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 50.0);
  EXPECT_GE(h.quantile(0.5), 50.0);
  EXPECT_LE(h.quantile(1.0), 60.0);
}

TEST(HistogramTest, QuantileInterpolatesOnlyInPopulatedBins) {
  Histogram h(100.0, 10);
  for (int i = 0; i < 4; ++i) h.add(15.0);  // bin 1
  for (int i = 0; i < 4; ++i) h.add(85.0);  // bin 8
  // Every quantile must fall inside a populated bin's range, never in the
  // empty gap (20,80).
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double value = h.quantile(q);
    const bool in_low = value >= 10.0 && value <= 20.0;
    const bool in_high = value >= 80.0 && value <= 90.0;
    EXPECT_TRUE(in_low || in_high) << "q=" << q << " -> " << value;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 85.0);  // target 6: 2/4 into bin 8
}

// ---------------------------------------------------------------------------
// MD5 (RFC 1321 test suite)
// ---------------------------------------------------------------------------

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5::hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456"
               "789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(
      Md5::hex("1234567890123456789012345678901234567890123456789012345678"
               "9012345678901234567890"),
      "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Md5 h;
  h.update("mess");
  h.update("age ");
  h.update("digest");
  EXPECT_EQ(to_hex(h.digest()), Md5::hex("message digest"));
}

TEST(Md5Test, BlockBoundaryLengths) {
  // Lengths around the 56/64-byte padding boundaries exercise both padding
  // branches.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 128u}) {
    const std::string data(len, 'x');
    Md5 incremental;
    incremental.update(data.substr(0, len / 2));
    incremental.update(data.substr(len / 2));
    EXPECT_EQ(to_hex(incremental.digest()), Md5::hex(data)) << len;
  }
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

TEST(JsonTest, ScalarDump) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonTest, DoublesRoundTripShortest) {
  // to_chars emits the shortest representation that parses back exactly.
  EXPECT_EQ(JsonValue(0.1).dump(), "0.1");
  EXPECT_EQ(JsonValue(10360.0).dump(), "10360");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(JsonTest, Uint64AboveInt64MaxSurvives) {
  // Values above int64 max fall back to double rather than wrapping
  // negative.
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  const std::string text = JsonValue(big).dump();
  EXPECT_EQ(text.find('-'), std::string::npos) << text;
  EXPECT_EQ(JsonValue(std::uint64_t{123}).dump(), "123");
}

TEST(JsonTest, EscapingControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonTest, ObjectKeepsInsertionOrderAndUpdatesInPlace) {
  JsonValue obj = JsonValue::object();
  obj["zeta"] = 1;
  obj["alpha"] = 2;
  obj["zeta"] = 3;  // update must not re-append
  EXPECT_TRUE(obj.is_object());
  EXPECT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.dump(), "{\"zeta\":3,\"alpha\":2}");
}

TEST(JsonTest, NullPromotesToObjectOrArrayOnFirstUse) {
  JsonValue root = JsonValue::object();
  root["nested"]["inner"] = true;  // null -> object
  root["list"].push_back(1);       // null -> array
  root["list"].push_back("two");
  EXPECT_TRUE(root["nested"].is_object());
  EXPECT_TRUE(root["list"].is_array());
  EXPECT_EQ(root.dump(),
            "{\"nested\":{\"inner\":true},\"list\":[1,\"two\"]}");
}

TEST(JsonTest, ArrayOfBuildsFromContainers) {
  const std::vector<double> xs = {1.0, 2.5};
  EXPECT_EQ(JsonValue::array_of(xs).dump(), "[1,2.5]");
  const std::vector<std::uint64_t> ns = {3, 4};
  EXPECT_EQ(JsonValue::array_of(ns).dump(), "[3,4]");
  EXPECT_EQ(JsonValue::array().dump(), "[]");
}

TEST(JsonTest, PrettyPrintIndents) {
  JsonValue obj = JsonValue::object();
  obj["a"] = 1;
  obj["b"].push_back(2);
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonTest, WriteFileRoundTrips) {
  JsonValue obj = JsonValue::object();
  obj["name"] = "svk";
  obj["ok"] = true;
  const std::string path = testing::TempDir() + "svk_json_test.json";
  ASSERT_TRUE(obj.write_file(path, -1));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\"name\":\"svk\",\"ok\":true}\n");
  std::remove(path.c_str());
}

TEST(JsonTest, WriteFileReportsFailure) {
  EXPECT_FALSE(JsonValue::object().write_file("/nonexistent-dir/x.json"));
}

// ---------------------------------------------------------------------------
// RunRecord
// ---------------------------------------------------------------------------

TEST(RunRecordTest, ToJsonCarriesEveryField) {
  RunRecord record;
  record.label = "stateful";
  record.offered_cps = 900.0;
  record.achieved_cps = 850.0;
  record.attempted_cps = 880.0;
  record.goodput_ratio = 850.0 / 900.0;
  record.setup_ms_mean = 12.0;
  record.setup_ms_p50 = 10.0;
  record.setup_ms_p90 = 20.0;
  record.setup_ms_p99 = 40.0;
  record.retransmissions = 17;
  record.calls_failed = 3;
  record.busy_500 = 2;
  record.node_utilization = {0.9, 0.4};
  record.node_rejected = {2, 0};
  record.wall_seconds = 0.25;

  const std::string text = record.to_json().dump();
  for (const char* fragment :
       {"\"label\":\"stateful\"", "\"offered_cps\":900",
        "\"achieved_cps\":850", "\"attempted_cps\":880",
        "\"setup_ms\":{\"mean\":12,\"p50\":10,\"p90\":20,\"p99\":40}",
        "\"retransmissions\":17", "\"calls_failed\":3", "\"busy_500\":2",
        "\"node_utilization\":[0.9,0.4]", "\"node_rejected\":[2,0]",
        "\"wall_seconds\":0.25"}) {
    EXPECT_NE(text.find(fragment), std::string::npos)
        << fragment << " missing from " << text;
  }
}

TEST(RunRecordTest, EmptyLabelIsOmitted) {
  const std::string text = RunRecord{}.to_json().dump();
  EXPECT_EQ(text.find("\"label\""), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  pool.wait_idle();  // no work yet: must not deadlock
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsRemainingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // no wait_idle: the destructor must finish the queue before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), ThreadPool::default_threads());
}

TEST(ParallelForIndexTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for_index(4, kCount,
                     [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForIndexTest, SingleThreadRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for_index(1, 5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForIndexTest, ZeroCountIsNoop) {
  parallel_for_index(4, 0, [](std::size_t) { FAIL() << "must not run"; });
}

// ---------------------------------------------------------------------------
// SmallVector
// ---------------------------------------------------------------------------

TEST(SmallVectorTest, StaysInlineUpToCapacityThenSpills) {
  SmallVector<std::string, 2> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.inlined());
  v.push_back("one");
  v.push_back("two");
  EXPECT_TRUE(v.inlined());
  v.push_back("three");  // spill to heap
  EXPECT_FALSE(v.inlined());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "one");
  EXPECT_EQ(v[1], "two");
  EXPECT_EQ(v[2], "three");
  EXPECT_EQ(v.front(), "one");
  EXPECT_EQ(v.back(), "three");
}

TEST(SmallVectorTest, PopBackAndEquality) {
  SmallVector<int, 2> v;
  v.push_back(2);
  v.push_back(3);
  v.push_back(4);  // spills to the heap
  ASSERT_EQ(v.size(), 3u);
  v.pop_back();
  v.pop_back();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 2);

  SmallVector<int, 2> w;
  w.push_back(2);
  EXPECT_EQ(v, w);
  w.push_back(9);
  EXPECT_FALSE(v == w);
}

TEST(SmallVectorTest, CopyAndMoveAcrossInlineAndHeapStates) {
  SmallVector<std::string, 2> heap;
  for (int i = 0; i < 5; ++i) heap.push_back("s" + std::to_string(i));

  SmallVector<std::string, 2> copied(heap);
  EXPECT_EQ(copied, heap);

  SmallVector<std::string, 2> moved(std::move(copied));
  ASSERT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved[4], "s4");
  EXPECT_TRUE(copied.empty());  // NOLINT(bugprone-use-after-move)

  SmallVector<std::string, 2> inline_src;
  inline_src.push_back("only");
  SmallVector<std::string, 2> inline_dst(std::move(inline_src));
  ASSERT_EQ(inline_dst.size(), 1u);
  EXPECT_EQ(inline_dst[0], "only");
  EXPECT_TRUE(inline_dst.inlined());

  moved = inline_dst;  // heap state assigned a small value
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], "only");
}

TEST(SmallVectorTest, AssignFromReverseIterators) {
  std::vector<int> src{1, 2, 3, 4};
  SmallVector<int, 2> v;
  v.assign(src.rbegin(), src.rend());
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 4);
  EXPECT_EQ(v[3], 1);
  // rbegin/rend on the SmallVector itself.
  EXPECT_EQ(*v.rbegin(), 1);
  EXPECT_EQ(*(v.rend() - 1), 4);
  v.clear();
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace svk

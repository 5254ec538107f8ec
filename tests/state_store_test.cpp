// Flat slab-backed state store (DESIGN.md §12): the open-addressing
// FlatTable, the generation-tagged Slab, and the precomputed-key probes the
// state layer runs on. Covers:
//
//   * pinned hash constants — the FNV-1a constants feed the wire text of
//     stateless branches and the location service's AOR hash, and the
//     mixing constants the network's per-datagram RNG seeds, so any drift
//     silently changes every golden digest;
//   * key_hash, the state tables' hash: every byte and the length count,
//     and generated branches and Call-IDs spread over the low bits;
//   * probe ≡ owning-key equivalence — txn_key_hash / dialog_id_hash over
//     a message's views equal the hashers over owning keys;
//   * a seeded property test churning FlatTable+Slab against a
//     std::unordered_map oracle (same finds, same survivors);
//   * backward-shift deletion under forced hash collisions;
//   * generation safety — a handle held across erase-and-reuse resolves to
//     nullptr, never to the slot's new occupant;
//   * erase-during-for_each (the expire_early / clear sweep pattern);
//   * the zero-steady-state-allocation contract the perf gate enforces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_table.hpp"
#include "common/hash.hpp"
#include "common/slab.hpp"
#include "dialog/dialog.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn_keys.hpp"

namespace svk {
namespace {

// ---------------------------------------------------------------------------
// Hash constants and primitives
// ---------------------------------------------------------------------------

TEST(HashConstants, PinnedValues) {
  // These feed every transaction key, dialog id and datagram RNG seed.
  // Changing any of them changes every golden digest — this test makes such
  // a change loud and deliberate.
  EXPECT_EQ(common::kFnvOffsetBasis, 0xcbf29ce484222325ULL);
  EXPECT_EQ(common::kFnvPrime, 0x100000001b3ULL);
  EXPECT_EQ(common::kGolden64, 0x9E3779B97F4A7C15ULL);
  EXPECT_EQ(common::kSplitMix64A, 0xBF58476D1CE4E5B9ULL);
}

TEST(HashConstants, Fnv1aReferenceVectors) {
  // Classic FNV-1a 64-bit test vectors.
  EXPECT_EQ(common::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(common::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(common::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashConstants, ChainedFnv1aEqualsConcatenated) {
  // Chaining through the seed parameter must equal hashing the
  // concatenation — this is what lets the location service hash an AOR as
  // user '@' host without materializing the joined string.
  const std::uint64_t chained = common::fnv1a(
      "host", common::fnv1a_byte('@', common::fnv1a("user")));
  EXPECT_EQ(chained, common::fnv1a("user@host"));
}

TEST(HashConstants, CounterSeedFormula) {
  const std::uint64_t base = 0x1234'5678'9abc'def0ULL;
  const std::uint64_t stream = 42;
  const std::uint64_t n = 7;
  EXPECT_EQ(common::counter_seed(base, stream, n),
            base ^ (stream * common::kGolden64) ^ (n * common::kSplitMix64A));
  EXPECT_EQ(common::counter_seed(base, 0, 0), base);
}

// ---------------------------------------------------------------------------
// key_hash
// ---------------------------------------------------------------------------

TEST(KeyHash, EveryByteAndTheLengthCount) {
  // 29 characters: three whole words and a last word overlapping the
  // third, the longest Call-ID shape on the benchmark beds.
  const std::string key = "uac15.main.client.net-1234567";
  ASSERT_EQ(key.size(), 29u);
  const std::uint64_t base = common::key_hash(key);
  for (std::size_t i = 0; i < key.size(); ++i) {
    std::string flipped = key;
    flipped[i] ^= 0x01;
    EXPECT_NE(common::key_hash(flipped), base) << "byte " << i;
  }
  for (std::size_t n = 0; n < key.size(); ++n) {
    EXPECT_NE(common::key_hash(std::string_view(key).substr(0, n)), base)
        << "prefix " << n;
  }
  EXPECT_NE(common::key_hash(key, 1), base);  // the seed counts too
  EXPECT_NE(common::key_hash(std::string(8, '\0')),
            common::key_hash(std::string(7, '\0')));
}

TEST(KeyHash, GeneratedKeysSpreadOverTheLowBits) {
  // FlatTable picks a slot by the low bits. Hash 2^16 generated branches
  // (16 elements' generators) and 2^16 Call-IDs (16 UACs' "<host>-<n>")
  // into 2^12 buckets: no bucket may hold more than twice the mean. The
  // two sets are pooled so the mean is 32: at a mean of 16, a perfectly
  // random hash already overflows 2x in about half of all key sets.
  constexpr std::size_t kPerSet = std::size_t{1} << 16;
  constexpr std::size_t kBuckets = std::size_t{1} << 12;
  std::vector<std::uint32_t> buckets(kBuckets, 0);
  const auto add = [&](std::string_view key) {
    ++buckets[common::key_hash(key) & (kBuckets - 1)];
  };
  for (std::uint64_t element = 0; element < 16; ++element) {
    sip::BranchGenerator branches(element | (std::uint64_t{1} << 32));
    for (std::size_t i = 0; i < kPerSet / 16; ++i) add(branches.next());
  }
  for (int uac = 0; uac < 16; ++uac) {
    const std::string host = "uac" + std::to_string(uac) + ".main.client.net";
    for (std::size_t n = 1; n <= kPerSet / 16; ++n) {
      add(host + "-" + std::to_string(n));
    }
  }
  const std::uint32_t mean = 2 * kPerSet / kBuckets;
  ASSERT_EQ(mean, 32u);
  const std::uint32_t fullest = *std::max_element(buckets.begin(),
                                                  buckets.end());
  EXPECT_LE(fullest, 2 * mean);
}

// ---------------------------------------------------------------------------
// Probe ≡ owning-key hash equivalence
// ---------------------------------------------------------------------------

TEST(ProbeEquivalence, TxnKeyHashMatchesLegacyHasher) {
  const sip::TransactionKey keys[] = {
      {"z9hG4bK-abc123", "p1.example.test", sip::Method::kInvite},
      {"z9hG4bK-abc123", "p1.example.test", sip::Method::kBye},
      {"z9hG4bK-abc123", "p2.example.test", sip::Method::kInvite},
      {"", "", sip::Method::kCancel},
  };
  for (const sip::TransactionKey& key : keys) {
    EXPECT_EQ(sip::txn_key_hash(key.branch, key.sent_by, key.method),
              sip::TransactionKeyHash{}(key));
    const sip::TxnProbe probe = sip::key_probe(key);
    EXPECT_EQ(probe.hash, sip::TransactionKeyHash{}(key));
    EXPECT_TRUE(probe.matches(key.branch, key.sent_by, key.method));
  }
  // Method participates in the hash (CANCEL vs INVITE share branch).
  EXPECT_NE(
      sip::txn_key_hash("z9hG4bK-x", "h", sip::Method::kInvite),
      sip::txn_key_hash("z9hG4bK-x", "h", sip::Method::kCancel));
}

TEST(ProbeEquivalence, RequestProbeMatchesServerKey) {
  sip::Message invite = sip::Message::request(
      sip::Method::kInvite, sip::Uri("user0", "cc.gatech.edu"),
      sip::NameAddr{"", sip::Uri("caller", "uac.test"), "tag1"},
      sip::NameAddr{"", sip::Uri("user0", "cc.gatech.edu"), ""}, "call-1",
      sip::CSeq{1, sip::Method::kInvite});
  invite.push_via(sip::Via{"SIP/2.0/UDP", "uac.test", "z9hG4bK-req-1"});
  const auto invite_ptr = std::move(invite).finish();

  const sip::TransactionKey key = sip::server_key(*invite_ptr);
  const sip::TxnProbe probe = sip::key_for_request(*invite_ptr);
  EXPECT_EQ(probe.hash, sip::TransactionKeyHash{}(key));
  EXPECT_TRUE(probe.matches(key.branch, key.sent_by, key.method));

  // ACK must probe the INVITE transaction (RFC 3261 17.2.3).
  sip::Message ack = sip::Message::request(
      sip::Method::kAck, sip::Uri("user0", "cc.gatech.edu"),
      sip::NameAddr{"", sip::Uri("caller", "uac.test"), "tag1"},
      sip::NameAddr{"", sip::Uri("user0", "cc.gatech.edu"), "tag2"}, "call-1",
      sip::CSeq{1, sip::Method::kAck});
  ack.push_via(sip::Via{"SIP/2.0/UDP", "uac.test", "z9hG4bK-req-1"});
  const auto ack_ptr = std::move(ack).finish();
  const sip::TxnProbe ack_probe = sip::key_for_request(*ack_ptr);
  EXPECT_EQ(ack_probe.hash, probe.hash);
  EXPECT_EQ(ack_probe.method, sip::Method::kInvite);
}

TEST(ProbeEquivalence, ResponseProbeMatchesClientKey) {
  sip::Message invite = sip::Message::request(
      sip::Method::kInvite, sip::Uri("user0", "cc.gatech.edu"),
      sip::NameAddr{"", sip::Uri("caller", "uac.test"), "tag1"},
      sip::NameAddr{"", sip::Uri("user0", "cc.gatech.edu"), ""}, "call-2",
      sip::CSeq{1, sip::Method::kInvite});
  invite.push_via(sip::Via{"SIP/2.0/UDP", "uac.test", "z9hG4bK-resp-1"});
  const auto invite_ptr = std::move(invite).finish();
  const auto ok = sip::Message::response(*invite_ptr, 200).finish();

  const sip::TransactionKey key = sip::client_key(*ok);
  const sip::TxnProbe probe = sip::key_for_response(*ok);
  EXPECT_EQ(probe.hash, sip::TransactionKeyHash{}(key));
  EXPECT_TRUE(probe.matches(key.branch, key.sent_by, key.method));
}

TEST(ProbeEquivalence, DialogIdHashMatchesLegacyHasher) {
  const dialog::DialogId id = dialog::DialogId::make("call-3", "ztag", "atag");
  const std::uint64_t id_hash =
      dialog::dialog_id_hash(id.call_id, id.tag_a, id.tag_b);

  // DialogProbe normalizes tag order exactly like DialogId::make: both
  // directions of the same dialog produce the same probe.
  const dialog::DialogProbe forward =
      dialog::DialogProbe::make("call-3", "ztag", "atag");
  const dialog::DialogProbe reverse =
      dialog::DialogProbe::make("call-3", "atag", "ztag");
  EXPECT_EQ(forward.hash, reverse.hash);
  EXPECT_EQ(forward.hash, id_hash);
  EXPECT_TRUE(forward.matches(id));
  EXPECT_TRUE(reverse.matches(id));
}

// ---------------------------------------------------------------------------
// FlatTable + Slab vs unordered_map oracle (seeded property test)
// ---------------------------------------------------------------------------

struct Entry {
  std::string key;
  std::uint64_t value = 0;
};

class StoreUnderTest {
 public:
  void insert(const std::string& key, std::uint64_t value) {
    const common::SlabHandle slot = slab_.emplace(Entry{key, value});
    table_.insert(common::key_hash(key), slot);
  }

  [[nodiscard]] const Entry* find(std::string_view key) {
    common::SlabHandle* slot = table_.find(
        common::key_hash(key),
        [&](const common::SlabHandle& h) { return slab_.get(h)->key == key; });
    return slot != nullptr ? slab_.get(*slot) : nullptr;
  }

  bool erase(std::string_view key) {
    Entry* found = nullptr;
    common::SlabHandle handle;
    const bool erased = table_.erase(
        common::key_hash(key), [&](const common::SlabHandle& h) {
          Entry* e = slab_.get(h);
          if (e->key != key) return false;
          found = e;
          handle = h;
          return true;
        });
    if (erased) slab_.erase(handle);
    (void)found;
    return erased;
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] common::Slab<Entry>& slab() { return slab_; }
  [[nodiscard]] common::FlatTable<common::SlabHandle>& table() {
    return table_;
  }

 private:
  common::Slab<Entry> slab_;
  common::FlatTable<common::SlabHandle> table_;
};

// Deterministic generator (tests must not depend on std::hash or libc rand).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }

 private:
  std::uint64_t state_;
};

TEST(StateStoreProperty, ChurnMatchesUnorderedMapOracle) {
  StoreUnderTest store;
  std::unordered_map<std::string, std::uint64_t> oracle;
  Lcg rng(0xfeedULL);

  constexpr std::size_t kKeyUniverse = 1500;
  constexpr std::size_t kOps = 120'000;
  std::vector<std::string> keys;
  keys.reserve(kKeyUniverse);
  for (std::size_t i = 0; i < kKeyUniverse; ++i) {
    keys.push_back("z9hG4bK-" + std::to_string(i) + "@proxy" +
                   std::to_string(i % 7) + ".example.test");
  }

  for (std::size_t op = 0; op < kOps; ++op) {
    const std::string& key = keys[rng.next() % kKeyUniverse];
    switch (rng.next() % 3) {
      case 0: {  // insert-if-absent
        if (oracle.find(key) == oracle.end()) {
          const std::uint64_t value = rng.next();
          oracle.emplace(key, value);
          store.insert(key, value);
        }
        break;
      }
      case 1: {  // erase
        const bool oracle_erased = oracle.erase(key) > 0;
        EXPECT_EQ(store.erase(key), oracle_erased);
        break;
      }
      default: {  // find
        const auto it = oracle.find(key);
        const Entry* found = store.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(found, nullptr) << key;
        } else {
          ASSERT_NE(found, nullptr) << key;
          EXPECT_EQ(found->value, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(store.size(), oracle.size());
  }

  // Survivors agree exactly (for_each sees every live entry once).
  std::unordered_map<std::string, std::uint64_t> walked;
  store.slab().for_each([&](common::SlabHandle, Entry& e) {
    EXPECT_TRUE(walked.emplace(e.key, e.value).second) << e.key;
  });
  EXPECT_EQ(walked, oracle);
}

TEST(FlatTable, BackwardShiftKeepsCollidingClusterFindable) {
  // Forced full-hash collisions: all entries share one hash, equality
  // disambiguates — erasing from the middle of the cluster must backward-
  // shift the rest so probes never hit a premature empty slot.
  common::FlatTable<int> table;
  constexpr std::uint64_t kHash = 0x42;
  for (int i = 0; i < 9; ++i) table.insert(kHash, i);

  EXPECT_TRUE(table.erase(kHash, [](int v) { return v == 4; }));
  EXPECT_TRUE(table.erase(kHash, [](int v) { return v == 0; }));
  EXPECT_TRUE(table.erase(kHash, [](int v) { return v == 8; }));
  EXPECT_EQ(table.size(), 6u);
  for (const int v : {1, 2, 3, 5, 6, 7}) {
    const int* found = table.find(kHash, [&](int x) { return x == v; });
    ASSERT_NE(found, nullptr) << v;
    EXPECT_EQ(*found, v);
  }
  EXPECT_EQ(table.find(kHash, [](int v) { return v == 4; }), nullptr);
}

TEST(FlatTable, ZeroHashIsStoredAndFound) {
  // Hash 0 marks empty slots internally; a real key hashing to 0 must still
  // round-trip (it is nudged to kGolden64 under the hood).
  common::FlatTable<int> table;
  table.insert(0, 7);
  const int* found = table.find(0, [](int v) { return v == 7; });
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(table.erase(0, [](int v) { return v == 7; }));
  EXPECT_TRUE(table.empty());
}

// ---------------------------------------------------------------------------
// Slab generation safety
// ---------------------------------------------------------------------------

TEST(Slab, StaleHandleAfterReuseResolvesNull) {
  common::Slab<Entry> slab;
  const common::SlabHandle first = slab.emplace(Entry{"old", 1});
  ASSERT_NE(slab.get(first), nullptr);

  ASSERT_TRUE(slab.erase(first));
  EXPECT_EQ(slab.get(first), nullptr);

  // The freed slot is reused (same index, bumped generation): the old
  // handle must NOT resolve to the new occupant. This is the guarantee the
  // scheduled-removal path leans on — a TxnHandle captured by a callback
  // can outlive its transaction and a same-slot successor.
  const common::SlabHandle second = slab.emplace(Entry{"new", 2});
  ASSERT_EQ(second.index, first.index);
  EXPECT_GT(second.generation, first.generation);
  EXPECT_EQ(slab.get(first), nullptr);
  ASSERT_NE(slab.get(second), nullptr);
  EXPECT_EQ(slab.get(second)->key, "new");

  // Erasing through the stale handle is a harmless no-op.
  EXPECT_FALSE(slab.erase(first));
  EXPECT_EQ(slab.size(), 1u);
}

TEST(Slab, NullHandleResolvesNull) {
  common::Slab<Entry> slab;
  EXPECT_EQ(slab.get(common::SlabHandle{}), nullptr);
  EXPECT_FALSE(slab.erase(common::SlabHandle{}));
}

TEST(Slab, EraseDuringForEachVisitsEveryLiveObject) {
  // The expire_early sweep erases visited objects mid-walk; DialogManager's
  // correctness depends on the walk still reaching every other live slot.
  common::Slab<Entry> slab;
  std::vector<common::SlabHandle> handles;
  for (std::uint64_t i = 0; i < 600; ++i) {
    handles.push_back(slab.emplace(Entry{std::to_string(i), i}));
  }
  std::size_t visited = 0;
  slab.for_each([&](common::SlabHandle h, Entry& e) {
    ++visited;
    if (e.value % 3 == 0) slab.erase(h);  // erase the visited object
  });
  EXPECT_EQ(visited, 600u);
  EXPECT_EQ(slab.size(), 400u);
  for (std::uint64_t i = 0; i < 600; ++i) {
    EXPECT_EQ(slab.get(handles[i]) != nullptr, i % 3 != 0) << i;
  }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation contract
// ---------------------------------------------------------------------------

TEST(StateStore, SteadyChurnMakesNoAllocations) {
  StoreUnderTest store;
  constexpr std::size_t kPopulation = 4096;
  std::vector<std::string> keys;
  keys.reserve(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    keys.push_back("z9hG4bK-warm-" + std::to_string(i));
    store.insert(keys.back(), i);
  }

  const std::uint64_t chunk_allocs = store.slab().stats().chunk_allocs;
  const std::uint64_t grows = store.table().stats().grows;
  EXPECT_GT(chunk_allocs, 0u);
  EXPECT_GT(grows, 0u);

  // Steady state: live count plateaus, every erase is matched by an
  // insert. The slab serves from its freelist and the table stays at its
  // settled capacity: zero allocations (CI also runs this in Release).
  Lcg rng(0xabcdULL);
  for (std::size_t round = 0; round < 50'000; ++round) {
    const std::string& key = keys[rng.next() % kPopulation];
    ASSERT_TRUE(store.erase(key));
    store.insert(key, round);
  }
  EXPECT_EQ(store.slab().stats().chunk_allocs, chunk_allocs);
  EXPECT_EQ(store.table().stats().grows, grows);
  EXPECT_GT(store.slab().stats().freelist_reuses, 0u);
  EXPECT_EQ(store.size(), kPopulation);
}

TEST(FlatTable, ReservePreallocatesSteadyCapacity) {
  common::FlatTable<int> table;
  table.reserve(1000);
  const std::uint64_t grows = table.stats().grows;
  EXPECT_GE(table.capacity() * 3, 1000u * 4);
  for (int i = 0; i < 1000; ++i) {
    table.insert(static_cast<std::uint64_t>(i) * common::kGolden64, i);
  }
  EXPECT_EQ(table.stats().grows, grows);  // no growth after reserve
  EXPECT_EQ(table.size(), 1000u);
}

}  // namespace
}  // namespace svk

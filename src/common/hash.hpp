// The codebase's string hashes: the "Hashing" cost block of the paper's
// Figure 3, the kind of header hash OpenSER uses for transaction lookup.
//
// key_hash indexes the state tables: transaction keys (sip/branch), dialog
// ids (dialog/dialog) and the user agents' Call-ID indexes. It mixes eight
// bytes per multiply and finishes with a full 64-bit finalizer, because
// FlatTable picks a slot by the low bits. No result reads a table's slot
// order, so its values may change freely (DESIGN.md §12).
//
// fnv1a stays where its value or its byte-by-byte chaining is relied on:
// stateless_branch puts it on the wire as branch text, and the location
// service hashes an AOR piecewise as user, '@', host. Its constants, and
// the network's per-datagram seed mix (which feeds loss/jitter draws and
// so every digest), are pinned by tests/state_store_test.cpp.
//
// All functions are allocation-free: callers hash string_views straight off
// a parsed message, which is what lets the state tables probe without
// materializing owning key strings.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace svk::common {

/// FNV-1a 64-bit offset basis and prime (the classic parameters).
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// 64-bit golden-ratio constant, used to fold small enums/integers into an
/// FNV state (and by the network's counter-based seed mixing).
inline constexpr std::uint64_t kGolden64 = 0x9E3779B97F4A7C15ULL;
/// SplitMix64's first mixing multiplier; second stream of the seed mix.
inline constexpr std::uint64_t kSplitMix64A = 0xBF58476D1CE4E5B9ULL;
/// SplitMix64's second mixing multiplier (key_hash's word mix).
inline constexpr std::uint64_t kSplitMix64B = 0x94D049BB133111EBULL;

/// FNV-1a over `data`, continuing from `seed` — chain calls to hash
/// multi-part keys without concatenating them.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view data, std::uint64_t seed = kFnvOffsetBasis) noexcept {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Folds one byte into an FNV-1a state (for separators like '@').
[[nodiscard]] constexpr std::uint64_t fnv1a_byte(std::uint8_t byte,
                                                 std::uint64_t seed) noexcept {
  return (seed ^ byte) * kFnvPrime;
}

/// The network layer's per-datagram seed mix: base seed x stream id x
/// per-stream counter. Cheap by design — Rng's SplitMix64 seeding finishes
/// the scrambling. Extracted verbatim from sim/network.hpp; changing this
/// changes every loss/jitter draw and therefore every digest.
[[nodiscard]] constexpr std::uint64_t counter_seed(std::uint64_t base,
                                                   std::uint64_t stream,
                                                   std::uint64_t n) noexcept {
  return base ^ (stream * kGolden64) ^ (n * kSplitMix64A);
}

/// Hash of `key` for the state tables, continuing from `seed` — chain calls
/// to hash multi-part keys. Each 8-byte word (loaded in host byte order)
/// is folded in with one multiply and a shift (a key longer than 8 bytes
/// ends with its last 8, overlapping the word before), the key length
/// enters through the initial state, and the SplitMix64 finalizer spreads
/// the state into the low bits.
[[nodiscard]] inline std::uint64_t key_hash(
    std::string_view key, std::uint64_t seed = kGolden64) noexcept {
  const char* p = key.data();
  std::size_t n = key.size();
  std::uint64_t h = seed ^ (n * kGolden64);
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * kSplitMix64B;
    h ^= h >> 32;
  };
  const auto load = [](const char* at) {
    std::uint64_t word;
    std::memcpy(&word, at, sizeof(word));
    return word;
  };
  if (n > 8) {
    for (; n > 8; p += 8, n -= 8) mix(load(p));
    mix(load(p + n - 8));
  } else if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    mix(word);
  }
  h ^= h >> 30;
  h *= kSplitMix64A;
  h ^= h >> 27;
  h *= kSplitMix64B;
  h ^= h >> 31;
  return h;
}

}  // namespace svk::common

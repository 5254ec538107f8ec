// Stat tables — the one instrument surface.
//
// Every component counts its events in a plain stats struct (ProxyStats,
// CpuStats, NetworkStats, TxnStats, UacMetrics, UasMetrics), once per
// event and always on. Each struct names its std::uint64_t counters in a
// static `kFields` table of {dump name, member} entries. Readers that need
// the counters generically — the metrics dump, the runner's measurement
// window, the checker's run totals — walk that table: a sum over
// components is a fieldwise sum, a window is a fieldwise difference, a
// dump writes one JSON member per entry. There is no second copy of any
// count to keep in step.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/json.hpp"

namespace svk {

template <typename S>
struct StatField {
  std::string_view name;  // dump name, "<component>.<field>"
  std::uint64_t S::*member;
};

/// Fieldwise `into += from` over S::kFields.
template <typename S>
void add_stats(S& into, const S& from) {
  for (const StatField<S>& f : S::kFields) into.*f.member += from.*f.member;
}

/// Fieldwise `after - before` over S::kFields (counters are monotone).
template <typename S>
[[nodiscard]] S diff_stats(const S& after, const S& before) {
  S out;
  for (const StatField<S>& f : S::kFields) {
    out.*f.member = after.*f.member - before.*f.member;
  }
  return out;
}

/// Writes one member per S::kFields entry into the JSON object `out`.
template <typename S>
void write_stats(JsonValue& out, const S& s) {
  for (const StatField<S>& f : S::kFields) out[f.name] = s.*f.member;
}

}  // namespace svk

// Location service (RFC 3261 10): the URI -> current contact binding
// database an exit proxy consults to reach the callee's device. The paper's
// "Lookup" cost block is the query against this service (OpenSER's usrloc
// table).
//
// Storage follows the flat state-store layout (DESIGN.md §12): entries live
// in a Slab and the index is a FlatTable of (AOR hash, slab handle) — the
// AOR string is owned once, inside the entry. The hot-path query is
// lookup_uri, which hashes user '@' host straight off the request URI's
// parts and compares piecewise, so the per-call routing lookup neither
// builds the "user@host" string nor allocates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/flat_table.hpp"
#include "common/sim_time.hpp"
#include "common/slab.hpp"
#include "sip/uri.hpp"

namespace svk::proxy {

/// One registered binding: where the AOR's device currently is.
struct Binding {
  sip::Uri contact;
  /// Simulated time after which the binding is gone (RFC 3261 10.2.4);
  /// SimTime::max() = never expires (out-of-band provisioning).
  SimTime expires_at = SimTime::max();
};

class LocationService {
 public:
  /// Registers (or replaces) the binding for `aor` ("user@domain").
  void register_binding(std::string_view aor, sip::Uri contact,
                        SimTime expires_at = SimTime::max());

  void unregister(std::string_view aor);

  /// Looks up the current contact for the given address-of-record.
  /// Bindings whose expiry has passed `now` are treated as absent.
  [[nodiscard]] std::optional<Binding> lookup(std::string_view aor,
                                              SimTime now = SimTime{}) const;

  /// lookup for `uri.aor()` without materializing the AOR string: hashes
  /// and compares the user/host parts in place.
  [[nodiscard]] std::optional<Binding> lookup_uri(const sip::Uri& uri,
                                                  SimTime now) const;

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::uint64_t query_count() const { return queries_; }

 private:
  struct Entry {
    std::string aor;
    Binding binding;
  };

  [[nodiscard]] std::optional<Binding> lookup_hashed(std::uint64_t hash,
                                                     std::string_view user,
                                                     std::string_view host,
                                                     SimTime now) const;

  common::Slab<Entry> slab_;
  common::FlatTable<common::SlabHandle> table_;
  mutable std::uint64_t queries_{0};
};

}  // namespace svk::proxy

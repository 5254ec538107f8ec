#include "proxy/location.hpp"

#include <utility>

#include "common/hash.hpp"

namespace svk::proxy {
namespace {

using common::fnv1a;

/// Hash of "user@host" (or just "host" when user is empty) computed from
/// the parts — FNV-1a is byte-sequential, so this equals fnv1a over the
/// materialized AOR string.
std::uint64_t aor_hash_parts(std::string_view user, std::string_view host) {
  if (user.empty()) return fnv1a(host);
  std::uint64_t h = fnv1a(user);
  h = common::fnv1a_byte('@', h);
  return fnv1a(host, h);
}

/// `aor` == "user@host" (or "host" when user is empty), compared in place.
bool aor_matches(std::string_view aor, std::string_view user,
                 std::string_view host) {
  if (user.empty()) return aor == host;
  return aor.size() == user.size() + 1 + host.size() &&
         aor.substr(0, user.size()) == user && aor[user.size()] == '@' &&
         aor.substr(user.size() + 1) == host;
}

}  // namespace

void LocationService::register_binding(std::string_view aor,
                                       sip::Uri contact, SimTime expires_at) {
  const std::uint64_t hash = fnv1a(aor);
  common::SlabHandle* slot =
      table_.find(hash, [&](const common::SlabHandle& h) {
        return slab_.get(h)->aor == aor;
      });
  if (slot != nullptr) {
    slab_.get(*slot)->binding = Binding{std::move(contact), expires_at};
    return;
  }
  const common::SlabHandle h = slab_.emplace();
  Entry& entry = *slab_.get(h);
  entry.aor = aor;
  entry.binding = Binding{std::move(contact), expires_at};
  table_.insert(hash, h);
}

std::optional<Binding> LocationService::lookup_uri(const sip::Uri& uri,
                                                   SimTime now) const {
  ++queries_;
  const std::string_view user = uri.user();
  const std::string_view host = uri.host();
  const common::SlabHandle* slot = table_.find(
      aor_hash_parts(user, host), [&](const common::SlabHandle& h) {
        return aor_matches(slab_.get(h)->aor, user, host);
      });
  if (slot == nullptr) return std::nullopt;
  const Binding& binding = slab_.get(*slot)->binding;
  if (binding.expires_at < now) return std::nullopt;
  return binding;
}

}  // namespace svk::proxy

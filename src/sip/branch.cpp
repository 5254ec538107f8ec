#include "sip/branch.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/hash.hpp"

namespace svk::sip {

using common::fnv1a;

namespace {

/// Appends `text` at `out`; returns the new end.
char* put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

/// Appends `v` in lowercase hex without leading zeros (printf's "%llx");
/// returns the new end.
char* put_hex(char* out, std::uint64_t v) {
  const int digits = std::max(1, (static_cast<int>(std::bit_width(v)) + 3) / 4);
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  }
  return out + digits;
}

/// Room for the cookie, a separator or "-sl", and two 64-bit hex numbers.
constexpr std::size_t kMaxGenerated = kMagicCookie.size() + 3 + 2 * 16;

}  // namespace

Branch BranchGenerator::next() {
  char buf[kMaxGenerated];
  char* p = put(buf, kMagicCookie);
  *p++ = '-';
  p = put_hex(p, element_id_);
  *p++ = '-';
  p = put_hex(p, ++counter_);
  return Branch(std::string_view(buf, static_cast<std::size_t>(p - buf)));
}

Branch stateless_branch(std::string_view incoming_branch,
                        std::string_view host) {
  const std::uint64_t h = fnv1a(host, fnv1a(incoming_branch));
  char buf[kMaxGenerated];
  char* p = put(buf, kMagicCookie);
  p = put(p, "-sl");
  p = put_hex(p, h);
  return Branch(std::string_view(buf, static_cast<std::size_t>(p - buf)));
}

std::uint64_t txn_key_hash(std::string_view branch, std::string_view sent_by,
                           Method method) noexcept {
  const std::uint64_t h = common::key_hash(
      branch, common::kGolden64 * (static_cast<std::uint64_t>(method) + 1));
  return common::key_hash(sent_by, h);
}

TransactionKey server_key(const Message& req) {
  const Via& via = req.top_via();
  Method method = req.method();
  if (method == Method::kAck) method = Method::kInvite;
  return TransactionKey{via.branch.str(), via.sent_by.str(), method};
}

TxnProbe key_for_request(const Message& req) {
  const Via& via = req.top_via();
  Method method = req.method();
  if (method == Method::kAck) method = Method::kInvite;
  return TxnProbe{txn_key_hash(via.branch, via.sent_by, method), via.branch,
                  via.sent_by, method};
}

TxnProbe key_for_response(const Message& resp) {
  const Via& via = resp.top_via();
  const Method method = resp.cseq().method;
  return TxnProbe{txn_key_hash(via.branch, via.sent_by, method), via.branch,
                  via.sent_by, method};
}

}  // namespace svk::sip

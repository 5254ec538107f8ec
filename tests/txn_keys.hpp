// Owning-key views of the transaction probes, for tests that check the
// probes (sip/branch.hpp) against a straightforward string-keyed form.
#pragma once

#include <cstddef>

#include "sip/branch.hpp"
#include "sip/message.hpp"

namespace svk::sip {

/// std::hash-style hasher over an owning key: the probes' hash.
struct TransactionKeyHash {
  std::size_t operator()(const TransactionKey& key) const noexcept {
    return static_cast<std::size_t>(
        txn_key_hash(key.branch, key.sent_by, key.method));
  }
};

/// The owning key a client transaction matches `resp` with: top Via branch
/// and sent-by plus the CSeq method (RFC 3261 17.1.3).
inline TransactionKey client_key(const Message& resp) {
  const Via& via = resp.top_via();
  return TransactionKey{via.branch.str(), via.sent_by.str(),
                        resp.cseq().method};
}

/// The probe over an owning key.
inline TxnProbe key_probe(const TransactionKey& key) {
  return TxnProbe{txn_key_hash(key.branch, key.sent_by, key.method),
                  key.branch, key.sent_by, key.method};
}

}  // namespace svk::sip

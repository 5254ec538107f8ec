// SIP message model (RFC 3261 subset).
//
// Messages are built mutable, then shared immutably across the simulated
// network as MessagePtr (shared_ptr<const Message>). A proxy that needs to
// modify a message in flight (push a Via, decrement Max-Forwards) copies it
// first — copy-on-forward, matching how a real proxy re-serializes.
//
// The layout is tuned for that copy. The call-identity fields (request-URI,
// From, To, Call-ID, CSeq, Contact, body) live in one ref-counted block
// that copies share; only a mutating accessor detaches it (copy on write),
// so a forwarded clone copies a pointer instead of those strings. The Via
// stack lives in a small-inline vector (no malloc for the common 1–4
// entries), stored bottom-first so push_via/pop_via — the per-hop
// operations — are O(1) at the back. Via branches, the Call-ID and
// extension-header values are InlineText (inline_text.hpp), so copying a
// Via stack, a header list or an identity block copies bytes. Via protocol
// and sent-by, URI scheme and host, the reason phrase and extension-header
// names are interned Tokens (pointer copies). finish() allocates the
// shared block from a freelist-backed pool (see message_pool.hpp), as do
// identity blocks, so a warm forward path creates and releases messages
// without the allocator.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/small_vector.hpp"
#include "sip/intern.hpp"
#include "sip/message_pool.hpp"
#include "sip/methods.hpp"
#include "sip/uri.hpp"
#include "sip/inline_text.hpp"

namespace svk::sip {

/// One Via header entry (RFC 3261 8.1.1.7 / 18.2.1): the response return
/// path. `sent_by` is the sender's host identity; `branch` the transaction
/// id token. Protocol and sent-by come from bounded vocabularies and are
/// interned; branch is per-transaction unique and is a Branch, which keeps
/// up to 31 characters inline, so copying a Via never allocates for a
/// generated branch. 56 bytes.
struct Via {
  Via() = default;
  Via(Token protocol, Token sent_by, Branch branch = {})
      : protocol(protocol), sent_by(sent_by), branch(std::move(branch)) {}
  /// Interns both values; per-hop sites should pass pre-interned Tokens.
  Via(std::string_view protocol, std::string_view sent_by,
      Branch branch = {})
      : Via(Token(protocol), Token(sent_by), std::move(branch)) {}

  /// "SIP/2.0/UDP", interned once per process.
  static Token udp() {
    static const Token protocol{"SIP/2.0/UDP"};
    return protocol;
  }

  Token protocol = udp();
  Token sent_by;
  Branch branch;
  /// RFC 7339-style overload-control feedback: the permitted request rate
  /// (cps) this hop advertises to its upstream neighbor, piggybacked on the
  /// Via it stamps onto responses. Negative = no advertisement.
  double oc_rate = -1.0;

  friend bool operator==(const Via&, const Via&) = default;
};

/// From/To/Contact value: optional display name, URI and optional tag.
struct NameAddr {
  std::string display;
  Uri uri;
  std::string tag;

  friend bool operator==(const NameAddr&, const NameAddr&) = default;
};

/// CSeq header (RFC 3261 8.1.1.5).
struct CSeq {
  std::uint32_t seq = 1;
  Method method = Method::kInvite;

  friend bool operator==(const CSeq&, const CSeq&) = default;
};

class Message;
using MessagePtr = std::shared_ptr<const Message>;

namespace detail {

/// The fields that identify a call and that a forwarding hop leaves alone:
/// every clone of a message shares one copy of them. The Call-ID is inline
/// text, so building or detaching a block copies it without the allocator.
struct Identity {
  Uri request_uri;
  NameAddr from;
  NameAddr to;
  InlineText call_id;
  CSeq cseq;
  std::optional<NameAddr> contact;
  std::string body;
};

/// Copy-on-write handle over one pooled, ref-counted Identity. Copies share
/// the block; mut() gives the caller a private block first. Null stands
/// for an all-default Identity, so a default Message allocates nothing.
/// The count is atomic: a MessagePtr may be released on another thread
/// than the one that cloned it, and the last release frees the block.
class SharedIdentity {
 public:
  SharedIdentity() noexcept = default;
  explicit SharedIdentity(Identity value) : node_(make(std::move(value))) {}
  SharedIdentity(const SharedIdentity& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  SharedIdentity(SharedIdentity&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  SharedIdentity& operator=(SharedIdentity other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~SharedIdentity() { release(node_); }

  [[nodiscard]] const Identity& get() const noexcept {
    return node_ != nullptr ? node_->value : empty();
  }
  /// Detaches from any other holder, then returns the now-private block.
  /// A reference taken here must not outlive the next copy of the handle.
  [[nodiscard]] Identity& mut();

 private:
  struct Node {
    Identity value;
    std::atomic<std::uint32_t> refs{1};
  };

  static Node* make(Identity value);
  static void release(Node* node) noexcept;
  static const Identity& empty() noexcept;

  Node* node_ = nullptr;
};

}  // namespace detail

/// A SIP request or response.
class Message {
 public:
  /// Via stack, stored bottom-first: the *last* element is the top Via
  /// (most recent hop). Iteration order is bottom-to-top; to_wire() emits
  /// top-first as the wire format requires.
  using ViaList = SmallVector<Via, 4>;
  /// Empty on most messages, so a plain vector (24 B, no inline slots).
  using RouteList = std::vector<Uri>;
  /// Extension headers: interned names, inline values (the proxies'
  /// host-valued X-Stateful marks fit, so a clone copies them as bytes).
  using HeaderList = SmallVector<std::pair<Token, InlineText>, 2>;

  /// Creates a request with the mandatory header skeleton.
  [[nodiscard]] static Message request(Method method, Uri request_uri,
                                       NameAddr from, NameAddr to,
                                       std::string_view call_id, CSeq cseq);

  /// Creates a response to `req` per RFC 3261 8.2.6: Vias, From, To,
  /// Call-ID and CSeq are copied from the request.
  [[nodiscard]] static Message response(const Message& req, int status_code,
                                        std::string_view reason = {});

  [[nodiscard]] bool is_request() const { return is_request_; }
  [[nodiscard]] bool is_response() const { return !is_request_; }

  // -- Request line --------------------------------------------------------
  [[nodiscard]] Method method() const { return method_; }
  [[nodiscard]] const Uri& request_uri() const { return id_.get().request_uri; }
  void set_request_uri(Uri uri) { id_.mut().request_uri = std::move(uri); }

  // -- Status line ---------------------------------------------------------
  [[nodiscard]] int status_code() const { return status_code_; }
  [[nodiscard]] const std::string& reason() const { return reason_.str(); }

  // -- Core headers --------------------------------------------------------
  /// The Via stack, bottom-first (top Via last — see ViaList).
  [[nodiscard]] const ViaList& vias() const { return vias_; }
  /// Top Via; precondition: at least one Via present.
  [[nodiscard]] const Via& top_via() const { return vias_.back(); }
  [[nodiscard]] Via& top_via() { return vias_.back(); }
  /// Pushes a new top Via. O(1).
  void push_via(Via via) { vias_.push_back(std::move(via)); }
  /// Pops the top Via. O(1).
  void pop_via() { vias_.pop_back(); }

  /// The non-const From/To accessors detach the shared identity block
  /// (copy on write): read through a const Message to avoid the copy.
  [[nodiscard]] const NameAddr& from() const { return id_.get().from; }
  [[nodiscard]] NameAddr& from() { return id_.mut().from; }
  [[nodiscard]] const NameAddr& to() const { return id_.get().to; }
  [[nodiscard]] NameAddr& to() { return id_.mut().to; }

  [[nodiscard]] const InlineText& call_id() const { return id_.get().call_id; }
  [[nodiscard]] const CSeq& cseq() const { return id_.get().cseq; }

  [[nodiscard]] const std::optional<NameAddr>& contact() const {
    return id_.get().contact;
  }
  void set_contact(NameAddr contact) {
    id_.mut().contact = std::move(contact);
  }

  [[nodiscard]] int max_forwards() const { return max_forwards_; }
  void set_max_forwards(int mf) { max_forwards_ = mf; }
  void decrement_max_forwards() { --max_forwards_; }

  // -- Routing headers -----------------------------------------------------
  [[nodiscard]] const RouteList& routes() const { return routes_; }
  [[nodiscard]] RouteList& routes() { return routes_; }
  [[nodiscard]] const RouteList& record_routes() const {
    return record_routes_;
  }
  [[nodiscard]] RouteList& record_routes() { return record_routes_; }

  // -- Extension headers ---------------------------------------------------
  /// First value of an extension header, if present.
  [[nodiscard]] std::optional<std::string_view> header(
      std::string_view name) const;
  /// Sets (replacing any existing value of) an extension header.
  void set_header(Token name, std::string_view value);
  /// Interns `name`; per-call sites should pass a pre-interned Token.
  void set_header(std::string_view name, std::string_view value) {
    set_header(Token(name), value);
  }
  [[nodiscard]] const HeaderList& extension_headers() const { return extra_; }

  // -- Body ----------------------------------------------------------------
  [[nodiscard]] const std::string& body() const { return id_.get().body; }
  void set_body(std::string body) { id_.mut().body = std::move(body); }

  /// Serializes to RFC 3261 wire format (CRLF line endings).
  [[nodiscard]] std::string to_wire() const;

  /// Shares this message immutably. The control block and payload come
  /// from the thread-local message pool in one allocation, recycled when
  /// the last MessagePtr drops.
  [[nodiscard]] MessagePtr finish() && {
    return std::allocate_shared<const Message>(MessagePoolAllocator<Message>{},
                                               std::move(*this));
  }

 private:
  bool is_request_ = true;
  Method method_ = Method::kInvite;
  int status_code_ = 0;
  int max_forwards_ = 70;
  Token reason_;
  detail::SharedIdentity id_;

  ViaList vias_;  // bottom-first; top Via is vias_.back()
  RouteList routes_;
  RouteList record_routes_;
  HeaderList extra_;

  friend class Parser;
};

/// Copies a shared message for modification (copy-on-forward). The copy
/// shares the identity block until one side mutates it.
[[nodiscard]] inline Message clone(const Message& msg) { return msg; }

}  // namespace svk::sip

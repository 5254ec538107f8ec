// SIP message model (RFC 3261 subset).
//
// Messages are built mutable, then shared immutably across the simulated
// network as MessagePtr: finish() moves the message into a pooled block
// that also holds its reference count, and a MessagePtr is one pointer to
// that block. A proxy that needs to modify a message in flight (push a
// Via, decrement Max-Forwards) copies it first — copy-on-forward, matching
// how a real proxy re-serializes.
//
// A Message is a 64-byte handle. Its variable parts live in shared,
// immutable, pooled blocks that copies share, so a clone, a response or a
// forward copies pointers:
//   - the dialog block (From, To, Call-ID, CSeq), which a response shares
//     with its request: a response that writes no To-tag holds no block of
//     its own;
//   - the target block (request-URI, Contact and the body), null in a
//     response that sets none of them, which is every response but the 2xx
//     to an INVITE;
//   - the Via stack, a persistent chain of ref-counted nodes, each pointing
//     at the Via below it. push_via adds one node over the shared rest, and
//     a response shares its request's whole chain;
//   - the Route and Record-Route sets, one block each, null when empty;
//   - the extension headers, one block.
// Reads never copy. Only an explicit mutator gives the caller a private
// block first (copy on write): mutable_top_via() copies just the top node,
// to() the dialog block, set_request_uri() the target block,
// mutable_routes() one route set, set_header the header block. Via
// protocol and sent-by, URI scheme and host, the reason phrase and
// extension-header names are interned Tokens (pointer copies); branches,
// Call-IDs and header values are InlineText (inline_text.hpp). The
// finished message and every shared part are blocks of the thread-local
// pools in message_pool.hpp, counted by one handle (detail::PoolRef), so a
// warm forward path creates and releases messages without the allocator.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/small_vector.hpp"
#include "sip/inline_text.hpp"
#include "sip/intern.hpp"
#include "sip/message_pool.hpp"
#include "sip/methods.hpp"
#include "sip/uri.hpp"

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

/// A Route or Record-Route set, in header order. Two inline slots: a
/// route set here is one entry per dialog-stateful hop.
using RouteList = SmallVector<Uri, 2>;
/// Extension headers: interned names, inline values (the proxies'
/// host-valued X-Stateful marks fit, so copying the list copies bytes).
using HeaderList = SmallVector<std::pair<Token, InlineText>, 2>;

class Message;
class MessagePtr;

namespace detail {

/// Copy-on-write handle over one pooled, ref-counted T. Copies share the
/// block; mut() gives the caller a private block first. Null stands for a
/// default T, so an unset part allocates nothing.
template <typename T, PoolKind kKind>
class Shared {
 public:
  Shared() noexcept = default;
  explicit Shared(T value) : node_(Ref::make(std::move(value))) {}

  [[nodiscard]] const T& get() const noexcept {
    return node_ ? node_->value : empty();
  }
  /// Detaches from any other holder, then returns the now-private block.
  /// A reference taken here must not outlive the next copy of the handle.
  [[nodiscard]] T& mut() {
    if (!node_) {
      node_ = Ref::make(T{});
    } else if (node_.shared()) {
      node_ = Ref::make(node_->value);
    }
    return node_->value;
  }

 private:
  struct Node {
    T value;
    std::atomic<std::uint32_t> refs{1};
  };
  using Ref = PoolRef<Node, kKind>;

  static const T& empty() noexcept {
    static const T none{};
    return none;
  }

  Ref node_;
};

}  // namespace detail

/// A shared, immutable route set: what the UAC keeps from a 200 and
/// attaches to the dialog's ACK and BYE.
using SharedRoutes = detail::Shared<RouteList, PoolKind::kRoutes>;
/// A shared, immutable message body: a constant body is built once.
using SharedBody = detail::Shared<std::string, PoolKind::kBody>;

namespace detail {

/// The dialog block: the fields a request and every response to it carry
/// unchanged, so a response shares its request's block and a forwarding
/// hop never copies it. The Call-ID is inline text, so building or
/// detaching a block copies it without the allocator.
struct Dialog {
  NameAddr from;
  NameAddr to;
  InlineText call_id;
  CSeq cseq;
};

/// The target block: the request-URI, the Contact and the body. A response
/// sets none of them unless it is a 2xx to an INVITE, so in every other
/// response the block is null; a proxy's request-URI rewrite copies this
/// block alone.
struct Target {
  Uri request_uri;
  std::optional<NameAddr> contact;
  SharedBody body;
};

using SharedDialog = Shared<Dialog, PoolKind::kIdentity>;
using SharedTarget = Shared<Target, PoolKind::kTarget>;

}  // namespace detail

/// The Via stack as a persistent chain: each pooled, ref-counted node holds
/// one Via, its depth and a reference to the Via below it. Copies share the
/// chain; push and pop touch only the top. Iteration runs top-first, in
/// wire order.
class ViaChain {
  struct Node;
  using NodeRef = detail::PoolRef<Node, PoolKind::kVia>;
  struct Node {
    Via via;
    NodeRef below;
    std::uint32_t depth;
    std::atomic<std::uint32_t> refs{1};
  };

 public:
  /// A top-first forward iterator.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Via;
    using difference_type = std::ptrdiff_t;
    using pointer = const Via*;
    using reference = const Via&;

    const_iterator() noexcept = default;
    reference operator*() const noexcept { return node_->via; }
    pointer operator->() const noexcept { return &node_->via; }
    const_iterator& operator++() noexcept {
      node_ = node_->below.get();
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const_iterator, const_iterator) = default;

   private:
    friend class ViaChain;
    explicit const_iterator(const Node* node) noexcept : node_(node) {}
    const Node* node_ = nullptr;
  };
  using iterator = const_iterator;
  using value_type = Via;
  using size_type = std::size_t;

  ViaChain() noexcept = default;

  [[nodiscard]] std::size_t size() const noexcept {
    return top_ ? top_->depth : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return !top_; }
  /// The most recent hop's Via; precondition: !empty().
  [[nodiscard]] const Via& top() const noexcept { return top_->via; }
  /// The originator's Via; precondition: !empty(). O(size()).
  [[nodiscard]] const Via& bottom() const noexcept;
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(top_.get());
  }
  [[nodiscard]] const_iterator end() const noexcept { return {}; }

  /// Pushes a new top Via over the shared rest of the chain.
  void push(Via via);
  /// Pops the top Via; precondition: !empty().
  void pop() noexcept { top_ = top_->below; }
  /// The top Via, copying its node first if another holder shares it;
  /// precondition: !empty().
  [[nodiscard]] Via& mutable_top();

  friend bool operator==(const ViaChain& a, const ViaChain& b) noexcept;

 private:
  NodeRef top_;
};

/// A SIP request or response.
class Message {
 public:
  /// Creates a request with the mandatory header skeleton.
  [[nodiscard]] static Message request(Method method, Uri request_uri,
                                       NameAddr from, NameAddr to,
                                       std::string_view call_id, CSeq cseq);

  /// Creates a response to `req` per RFC 3261 8.2.6: Vias, From, To,
  /// Call-ID and CSeq are copied from the request by sharing its Via chain
  /// and dialog block, and so is the Record-Route set.
  [[nodiscard]] static Message response(const Message& req, int status_code,
                                        std::string_view reason = {});

  [[nodiscard]] bool is_request() const { return is_request_; }
  [[nodiscard]] bool is_response() const { return !is_request_; }

  // -- Request line --------------------------------------------------------
  [[nodiscard]] Method method() const { return static_cast<Method>(method_); }
  [[nodiscard]] const Uri& request_uri() const {
    return target_.get().request_uri;
  }
  void set_request_uri(Uri uri) {
    target_.mut().request_uri = std::move(uri);
  }

  // -- Status line ---------------------------------------------------------
  [[nodiscard]] int status_code() const { return status_code_; }
  [[nodiscard]] const std::string& reason() const { return reason_.str(); }

  // -- Core headers --------------------------------------------------------
  /// The Via stack, top-first.
  [[nodiscard]] const ViaChain& vias() const { return vias_; }
  /// Top Via; precondition: at least one Via present.
  [[nodiscard]] const Via& top_via() const { return vias_.top(); }
  /// Top Via for writing; copies its node first when it is shared.
  [[nodiscard]] Via& mutable_top_via() { return vias_.mutable_top(); }
  /// Pushes a new top Via. O(1).
  void push_via(Via via) { vias_.push(std::move(via)); }
  /// Pops the top Via. O(1).
  void pop_via() { vias_.pop(); }

  /// The non-const From/To accessors detach the shared dialog block (copy
  /// on write): read through a const Message to avoid the copy.
  [[nodiscard]] const NameAddr& from() const { return dialog_.get().from; }
  [[nodiscard]] NameAddr& from() { return dialog_.mut().from; }
  [[nodiscard]] const NameAddr& to() const { return dialog_.get().to; }
  [[nodiscard]] NameAddr& to() { return dialog_.mut().to; }

  [[nodiscard]] const InlineText& call_id() const {
    return dialog_.get().call_id;
  }
  [[nodiscard]] const CSeq& cseq() const { return dialog_.get().cseq; }

  [[nodiscard]] const std::optional<NameAddr>& contact() const {
    return target_.get().contact;
  }
  void set_contact(NameAddr contact) {
    target_.mut().contact = std::move(contact);
  }

  [[nodiscard]] int max_forwards() const { return max_forwards_; }
  void set_max_forwards(int mf) { max_forwards_ = mf; }
  void decrement_max_forwards() { --max_forwards_; }

  // -- Routing headers -----------------------------------------------------
  [[nodiscard]] const RouteList& routes() const { return routes_.get(); }
  /// The Route set for writing; copies the block first when it is shared.
  [[nodiscard]] RouteList& mutable_routes() { return routes_.mut(); }
  /// Attaches a shared Route set (the UAC's dialog route set).
  void set_routes(SharedRoutes routes) { routes_ = std::move(routes); }
  /// Drops the first Route entry (RFC 3261 16.4); precondition: one exists.
  void pop_route();

  [[nodiscard]] const RouteList& record_routes() const {
    return record_routes_.get();
  }
  [[nodiscard]] RouteList& mutable_record_routes() {
    return record_routes_.mut();
  }
  /// The Record-Route set's block, for sharing it unchanged.
  [[nodiscard]] const SharedRoutes& shared_record_routes() const {
    return record_routes_;
  }
  void set_record_routes(SharedRoutes routes) {
    record_routes_ = std::move(routes);
  }

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
  [[nodiscard]] const HeaderList& extension_headers() const {
    return extra_.get();
  }

  // -- Body ----------------------------------------------------------------
  [[nodiscard]] const std::string& body() const {
    return target_.get().body.get();
  }
  void set_body(std::string body) {
    set_body(body.empty() ? SharedBody() : SharedBody(std::move(body)));
  }
  /// Shares a body built once (a constant SDP) instead of copying it. An
  /// empty body on a message without one leaves the target block alone.
  void set_body(SharedBody body);

  /// Serializes to RFC 3261 wire format (CRLF line endings).
  [[nodiscard]] std::string to_wire() const;

  /// Shares this message immutably: moves it into a message block of this
  /// thread's pool, recycled when the last MessagePtr drops.
  [[nodiscard]] MessagePtr finish() &&;

 private:
  bool is_request_ = true;
  // A Method, stored in one byte so the handle stays at 64 B.
  std::uint8_t method_ = static_cast<std::uint8_t>(Method::kInvite);
  std::int16_t status_code_ = 0;
  int max_forwards_ = 70;
  Token reason_;
  detail::SharedDialog dialog_;
  detail::SharedTarget target_;
  ViaChain vias_;
  SharedRoutes routes_;
  SharedRoutes record_routes_;
  detail::Shared<HeaderList, PoolKind::kHeaders> extra_;

  friend class Parser;
};

namespace detail {

/// A finished message and its count: one PoolKind::kMessage block, 72 B.
struct MessageBlock {
  Message message;
  std::atomic<std::uint32_t> refs{1};
};

}  // namespace detail

/// A shared, immutable message: a nullable handle over one message block.
/// Copies share the block, and the last release, on any thread, destroys
/// the message and returns the block to that thread's pool.
class MessagePtr {
 public:
  MessagePtr() noexcept = default;

  const Message& operator*() const noexcept { return block_->message; }
  const Message* operator->() const noexcept { return &block_->message; }
  explicit operator bool() const noexcept { return static_cast<bool>(block_); }
  void reset() noexcept { block_ = {}; }

  friend bool operator==(const MessagePtr&, const MessagePtr&) = default;
  friend bool operator==(const MessagePtr& ptr, std::nullptr_t) noexcept {
    return !ptr;
  }

 private:
  friend class Message;
  using Block = detail::PoolRef<detail::MessageBlock, PoolKind::kMessage>;
  explicit MessagePtr(Block block) noexcept : block_(std::move(block)) {}

  Block block_;
};
static_assert(sizeof(MessagePtr) == sizeof(void*));

inline MessagePtr Message::finish() && {
  return MessagePtr(MessagePtr::Block::make(std::move(*this)));
}

/// Copies a shared message for modification (copy-on-forward). The copy
/// shares every block until one side mutates it.
[[nodiscard]] inline Message clone(const Message& msg) { return msg; }

}  // namespace svk::sip

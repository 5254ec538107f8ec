#include "sip/message.hpp"

#include <array>
#include <cstdio>
#include <new>
#include <utility>

namespace svk::sip {
namespace {

void append_name_addr(std::string& out, std::string_view name,
                      const NameAddr& value) {
  out += name;
  out += ": ";
  if (!value.display.empty()) {
    out += '"';
    out += value.display;
    out += "\" ";
  }
  out += '<';
  out += value.uri.to_string();
  out += '>';
  if (!value.tag.empty()) {
    out += ";tag=";
    out += value.tag;
  }
  out += "\r\n";
}

/// The default reason phrase as a Token, interned once per status code so
/// building a response never takes the intern lock.
Token default_reason(int status_code) {
  constexpr int kFirst = 100;
  static const auto tokens = [] {
    std::array<Token, 600> t;
    for (int code = kFirst; code < kFirst + 600; ++code) {
      t[code - kFirst] = reason_phrase(code);
    }
    return t;
  }();
  if (status_code < kFirst || status_code >= kFirst + 600) {
    return Token(reason_phrase(status_code));
  }
  return tokens[status_code - kFirst];
}

}  // namespace

namespace detail {

Identity& SharedIdentity::mut() {
  if (node_ == nullptr) {
    node_ = make(Identity{});
  } else if (node_->refs != 1) {
    Node* own = make(node_->value);
    release(std::exchange(node_, own));
  }
  return node_->value;
}

SharedIdentity::Node* SharedIdentity::make(Identity value) {
  void* block = pool_allocate(sizeof(Node), PoolKind::kIdentity);
  return ::new (block) Node{std::move(value)};
}

void SharedIdentity::release(Node* node) noexcept {
  if (node == nullptr || --node->refs != 0) return;
  node->~Node();
  pool_deallocate(node, sizeof(Node), PoolKind::kIdentity);
}

const Identity& SharedIdentity::empty() noexcept {
  static const Identity none;
  return none;
}

}  // namespace detail

Message Message::request(Method method, Uri request_uri, NameAddr from,
                         NameAddr to, std::string_view call_id, CSeq cseq) {
  Message msg;
  msg.is_request_ = true;
  msg.method_ = method;
  msg.id_ = detail::SharedIdentity(
      detail::Identity{std::move(request_uri), std::move(from), std::move(to),
                       InlineText(call_id), cseq, std::nullopt, {}});
  return msg;
}

Message Message::response(const Message& req, int status_code,
                          std::string_view reason) {
  Message msg;
  msg.is_request_ = false;
  msg.status_code_ = status_code;
  msg.reason_ = reason.empty() ? default_reason(status_code) : Token(reason);
  msg.vias_ = req.vias_;
  // A response keeps the request's From, To, Call-ID and CSeq, but not its
  // request-URI, Contact or body, so it gets a block of its own.
  const detail::Identity& ids = req.id_.get();
  msg.id_ = detail::SharedIdentity(detail::Identity{
      {}, ids.from, ids.to, ids.call_id, ids.cseq, std::nullopt, {}});
  // Record-Route is mirrored into responses so the caller learns the
  // dialog route set (RFC 3261 16.7/12.1.1).
  msg.record_routes_ = req.record_routes_;
  return msg;
}

std::optional<std::string_view> Message::header(
    std::string_view name) const {
  for (const auto& [key, value] : extra_) {
    if (key == name) return std::string_view(value);
  }
  return std::nullopt;
}

void Message::set_header(Token name, std::string_view value) {
  for (auto& [key, existing] : extra_) {
    if (key == name) {
      existing = InlineText(value);
      return;
    }
  }
  extra_.emplace_back(name, value);
}


std::string Message::to_wire() const {
  const detail::Identity& ids = id_.get();
  // Size the buffer once: per-header constants cover the literal parts
  // ("Via: ", ";branch=", CRLFs...), variable parts are summed exactly for
  // the repeated headers and estimated generously for the name-addr lines.
  std::size_t estimate = 192 + ids.body.size() + ids.call_id.size() +
                         reason_.size() + 96 * (2 + (ids.contact ? 1 : 0));
  for (const Via& via : vias_) {
    estimate += 16 + via.protocol.size() + via.sent_by.size() +
                via.branch.size() + (via.oc_rate >= 0.0 ? 24 : 0);
  }
  estimate += 64 * (routes_.size() + record_routes_.size());
  for (const auto& [key, value] : extra_) {
    estimate += key.size() + value.size() + 4;
  }
  std::string out;
  out.reserve(estimate);

  if (is_request_) {
    out += to_string(method_);
    out += ' ';
    out += ids.request_uri.to_string();
    out += " SIP/2.0\r\n";
  } else {
    out += "SIP/2.0 ";
    out += std::to_string(status_code_);
    out += ' ';
    out += reason_.view();
    out += "\r\n";
  }

  // vias_ is stored bottom-first; the wire format lists the top Via first.
  for (auto it = vias_.rbegin(); it != vias_.rend(); ++it) {
    const Via& via = *it;
    out += "Via: ";
    out += via.protocol.view();
    out += ' ';
    out += via.sent_by.view();
    if (!via.branch.empty()) {
      out += ";branch=";
      out += via.branch.view();
    }
    if (via.oc_rate >= 0.0) {
      char oc[32];
      std::snprintf(oc, sizeof(oc), ";oc=%.3f", via.oc_rate);
      out += oc;
    }
    out += "\r\n";
  }
  for (const Uri& route : record_routes_) {
    out += "Record-Route: <";
    out += route.to_string();
    out += ">\r\n";
  }
  for (const Uri& route : routes_) {
    out += "Route: <";
    out += route.to_string();
    out += ">\r\n";
  }
  append_name_addr(out, "From", ids.from);
  append_name_addr(out, "To", ids.to);
  out += "Call-ID: ";
  out += ids.call_id.view();
  out += "\r\n";
  out += "CSeq: ";
  out += std::to_string(ids.cseq.seq);
  out += ' ';
  out += to_string(ids.cseq.method);
  out += "\r\n";
  if (ids.contact) {
    append_name_addr(out, "Contact", *ids.contact);
  }
  if (is_request_) {
    out += "Max-Forwards: ";
    out += std::to_string(max_forwards_);
    out += "\r\n";
  }
  for (const auto& [key, value] : extra_) {
    out += key.view();
    out += ": ";
    out += value.view();
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(ids.body.size());
  out += "\r\n\r\n";
  out += ids.body;
  return out;
}

}  // namespace svk::sip

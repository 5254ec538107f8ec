#include "sip/message.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <utility>

namespace svk::sip {
namespace {

/// Appends the decimal form of `value`, without a temporary string.
template <typename Int>
void append_int(std::string& out, Int value) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, static_cast<std::size_t>(end - digits));
}

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
  value.uri.append_to(out);
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

const Via& ViaChain::bottom() const noexcept {
  const Node* node = top_.get();
  while (node->below) node = node->below.get();
  return node->via;
}

void ViaChain::push(Via via) {
  const auto depth = static_cast<std::uint32_t>(size() + 1);
  // The new node takes over this chain's reference to the old top.
  top_ = NodeRef::make(std::move(via), std::move(top_), depth);
}

Via& ViaChain::mutable_top() {
  if (top_.shared()) top_ = NodeRef::make(top_->via, top_->below, top_->depth);
  return top_->via;
}

bool operator==(const ViaChain& a, const ViaChain& b) noexcept {
  if (a.size() != b.size()) return false;
  auto it = b.begin();
  for (const Via& via : a) {
    if (!(via == *it++)) return false;
  }
  return true;
}

Message Message::request(Method method, Uri request_uri, NameAddr from,
                         NameAddr to, std::string_view call_id, CSeq cseq) {
  Message msg;
  msg.is_request_ = true;
  msg.method_ = static_cast<std::uint8_t>(method);
  msg.dialog_ = detail::SharedDialog(detail::Dialog{
      std::move(from), std::move(to), InlineText(call_id), cseq});
  msg.target_ = detail::SharedTarget(
      detail::Target{std::move(request_uri), std::nullopt, {}});
  return msg;
}

Message Message::response(const Message& req, int status_code,
                          std::string_view reason) {
  Message msg;
  msg.is_request_ = false;
  msg.status_code_ = static_cast<std::int16_t>(status_code);
  msg.reason_ = reason.empty() ? default_reason(status_code) : Token(reason);
  msg.vias_ = req.vias_;
  // A response keeps the request's From, To, Call-ID and CSeq, so it shares
  // the request's dialog block until it writes a To-tag. It keeps neither
  // the request-URI, the Contact nor the body: its target block is null.
  msg.dialog_ = req.dialog_;
  // Record-Route is mirrored into responses so the caller learns the
  // dialog route set (RFC 3261 16.7/12.1.1).
  msg.record_routes_ = req.record_routes_;
  return msg;
}

void Message::set_body(SharedBody body) {
  if (body.get().empty() && this->body().empty()) return;
  target_.mut().body = std::move(body);
}

void Message::pop_route() {
  const RouteList& routes = routes_.get();
  if (routes.size() == 1) {
    routes_ = SharedRoutes();
    return;
  }
  RouteList rest;
  rest.assign(routes.begin() + 1, routes.end());
  routes_ = SharedRoutes(std::move(rest));
}

std::optional<std::string_view> Message::header(
    std::string_view name) const {
  for (const auto& [key, value] : extra_.get()) {
    if (key == name) return std::string_view(value);
  }
  return std::nullopt;
}

void Message::set_header(Token name, std::string_view value) {
  HeaderList& headers = extra_.mut();
  for (auto& [key, existing] : headers) {
    if (key == name) {
      existing = InlineText(value);
      return;
    }
  }
  headers.emplace_back(name, value);
}

std::string Message::to_wire() const {
  const detail::Dialog& ids = dialog_.get();
  const detail::Target& target = target_.get();
  const std::string& body = target.body.get();
  const HeaderList& headers = extra_.get();
  // Size the buffer once: per-header constants cover the literal parts
  // ("Via: ", ";branch=", CRLFs...), variable parts are summed exactly for
  // the repeated headers and estimated generously for the name-addr lines.
  std::size_t estimate = 192 + body.size() + ids.call_id.size() +
                         reason_.size() + 96 * (2 + (target.contact ? 1 : 0));
  for (const Via& via : vias_) {
    estimate += 16 + via.protocol.size() + via.sent_by.size() +
                via.branch.size() + (via.oc_rate >= 0.0 ? 24 : 0);
  }
  estimate += 64 * (routes().size() + record_routes().size());
  for (const auto& [key, value] : headers) {
    estimate += key.size() + value.size() + 4;
  }
  std::string out;
  out.reserve(estimate);

  if (is_request_) {
    out += to_string(method());
    out += ' ';
    target.request_uri.append_to(out);
    out += " SIP/2.0\r\n";
  } else {
    out += "SIP/2.0 ";
    append_int(out, status_code_);
    out += ' ';
    out += reason_.view();
    out += "\r\n";
  }

  for (const Via& via : vias_) {  // top-first, the wire order
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
  for (const Uri& route : record_routes()) {
    out += "Record-Route: <";
    route.append_to(out);
    out += ">\r\n";
  }
  for (const Uri& route : routes()) {
    out += "Route: <";
    route.append_to(out);
    out += ">\r\n";
  }
  append_name_addr(out, "From", ids.from);
  append_name_addr(out, "To", ids.to);
  out += "Call-ID: ";
  out += ids.call_id.view();
  out += "\r\n";
  out += "CSeq: ";
  append_int(out, ids.cseq.seq);
  out += ' ';
  out += to_string(ids.cseq.method);
  out += "\r\n";
  if (target.contact) {
    append_name_addr(out, "Contact", *target.contact);
  }
  if (is_request_) {
    out += "Max-Forwards: ";
    append_int(out, max_forwards_);
    out += "\r\n";
  }
  for (const auto& [key, value] : headers) {
    out += key.view();
    out += ": ";
    out += value.view();
    out += "\r\n";
  }
  out += "Content-Length: ";
  append_int(out, body.size());
  out += "\r\n\r\n";
  out += body;
  return out;
}

}  // namespace svk::sip

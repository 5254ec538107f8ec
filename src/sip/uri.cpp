#include "sip/uri.hpp"

#include <cctype>
#include <charconv>

namespace svk::sip {
namespace {

bool valid_port(int port) { return port > 0 && port <= 65535; }

}  // namespace

Result<Uri> Uri::parse(std::string_view text) {
  Uri uri;

  const auto colon = text.find(':');
  if (colon == std::string_view::npos) {
    return make_error("uri: missing scheme separator");
  }
  const std::string_view scheme = text.substr(0, colon);
  if (scheme != "sip" && scheme != "sips") {
    return make_error("uri: unsupported scheme '" + std::string(scheme) +
                      "'");
  }
  uri.scheme_ = scheme;
  std::string_view rest = text.substr(colon + 1);
  if (rest.empty()) return make_error("uri: empty body");

  // Strip ?headers (unsupported, tolerated).
  if (const auto q = rest.find('?'); q != std::string_view::npos) {
    rest = rest.substr(0, q);
  }

  // Split off ;params.
  std::string_view params;
  if (const auto semi = rest.find(';'); semi != std::string_view::npos) {
    params = rest.substr(semi + 1);
    rest = rest.substr(0, semi);
  }

  // user@host[:port] or host[:port].
  std::string_view hostport = rest;
  if (const auto at = rest.find('@'); at != std::string_view::npos) {
    uri.user_ = std::string(rest.substr(0, at));
    if (uri.user_.empty()) return make_error("uri: empty user before '@'");
    hostport = rest.substr(at + 1);
  }
  if (hostport.empty()) return make_error("uri: empty host");

  if (const auto pcolon = hostport.rfind(':');
      pcolon != std::string_view::npos) {
    const std::string_view port_text = hostport.substr(pcolon + 1);
    int port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() ||
        !valid_port(port)) {
      return make_error("uri: bad port '" + std::string(port_text) + "'");
    }
    uri.port_ = port;
    hostport = hostport.substr(0, pcolon);
    if (hostport.empty()) return make_error("uri: empty host before port");
  }
  uri.host_ = hostport;

  // ;name=value;flag params.
  while (!params.empty()) {
    std::string_view item = params;
    if (const auto semi = params.find(';'); semi != std::string_view::npos) {
      item = params.substr(0, semi);
      params = params.substr(semi + 1);
    } else {
      params = {};
    }
    if (item.empty()) continue;
    if (const auto eq = item.find('='); eq != std::string_view::npos) {
      uri.params_.emplace_back(std::string(item.substr(0, eq)),
                               std::string(item.substr(eq + 1)));
    } else {
      uri.params_.emplace_back(std::string(item), std::string());
    }
  }
  return uri;
}

std::optional<std::string_view> Uri::param(std::string_view name) const {
  for (const auto& [key, value] : params_) {
    if (key == name) return std::string_view(value);
  }
  return std::nullopt;
}

void Uri::set_param(std::string name, std::string value) {
  for (auto& [key, existing] : params_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  params_.emplace_back(std::move(name), std::move(value));
}

std::string Uri::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Uri::append_to(std::string& out) const {
  out += scheme_.view();
  out += ':';
  if (!user_.empty()) {
    out += user_;
    out += '@';
  }
  out += host_.view();
  if (port_ != 0) {
    out += ':';
    char digits[16];
    out.append(digits,
               std::to_chars(digits, digits + sizeof(digits), port_).ptr);
  }
  for (const auto& [key, value] : params_) {
    out += ';';
    out += key;
    if (!value.empty()) {
      out += '=';
      out += value;
    }
  }
}

}  // namespace svk::sip

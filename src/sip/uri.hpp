// SIP URI (RFC 3261 19.1), the subset needed for proxy routing and location
// lookup: scheme, user, host, port and ;name=value parameters.
//
// Scheme and host come from bounded vocabularies (two schemes, one host per
// simulated node) and are interned Tokens: copying a Uri copies two
// pointers plus the user part, and a per-call URI built from a pre-interned
// host Token never touches the intern table.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "sip/intern.hpp"

namespace svk::sip {

/// A parsed sip:/sips: URI, e.g. "sip:hal@us.ibm.com:5060;transport=udp".
class Uri {
 public:
  Uri() = default;
  Uri(std::string user, Token host, int port = 0)
      : user_(std::move(user)), host_(host), port_(port) {}
  /// Interns `host`; per-call sites should pass a pre-interned Token.
  Uri(std::string user, std::string_view host, int port = 0)
      : Uri(std::move(user), Token(host), port) {}

  /// Parses the textual form. Accepts an empty user part ("sip:host").
  [[nodiscard]] static Result<Uri> parse(std::string_view text);

  [[nodiscard]] const std::string& scheme() const { return scheme_.str(); }
  [[nodiscard]] const std::string& user() const { return user_; }
  [[nodiscard]] const std::string& host() const { return host_.str(); }
  /// 0 when the URI carries no explicit port.
  [[nodiscard]] int port() const { return port_; }

  /// Parameter access; names are case-sensitive in this implementation
  /// (our own stack is the only producer).
  [[nodiscard]] std::optional<std::string_view> param(
      std::string_view name) const;
  void set_param(std::string name, std::string value);
  [[nodiscard]] bool has_param(std::string_view name) const {
    return param(name).has_value();
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  params() const {
    return params_;
  }

  [[nodiscard]] std::string to_string() const;
  /// Appends the textual form to `out` (to_wire builds in place with it).
  void append_to(std::string& out) const;

  /// Equality over scheme, user, host and port (parameters excluded, as in
  /// loose AOR comparison).
  friend bool operator==(const Uri& a, const Uri& b) {
    return a.scheme_ == b.scheme_ && a.user_ == b.user_ &&
           a.host_ == b.host_ && a.port_ == b.port_;
  }

 private:
  /// "sip", interned once per process.
  static Token sip_scheme() {
    static const Token scheme{"sip"};
    return scheme;
  }

  Token scheme_ = sip_scheme();
  std::string user_;
  Token host_;
  int port_ = 0;
  std::vector<std::pair<std::string, std::string>> params_;
};

}  // namespace svk::sip

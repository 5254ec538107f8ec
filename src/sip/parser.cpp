#include "sip/parser.hpp"

#include <charconv>
#include <string>
#include <vector>

namespace svk::sip {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Pops the next CRLF- (or LF-) terminated line from `rest`.
std::string_view next_line(std::string_view& rest) {
  const auto nl = rest.find('\n');
  std::string_view line;
  if (nl == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, nl);
    rest = rest.substr(nl + 1);
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

bool parse_int(std::string_view text, int& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_u32(std::string_view text, std::uint32_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

Result<Via> parse_via(std::string_view value) {
  value = trim(value);
  const auto space = value.find(' ');
  if (space == std::string_view::npos) {
    return make_error("via: missing sent-by");
  }
  Via via;
  via.protocol = trim(value.substr(0, space));
  std::string_view rest = trim(value.substr(space + 1));
  // sent-by[;params]
  const auto semi = rest.find(';');
  via.sent_by = trim(rest.substr(0, semi));
  if (via.sent_by.empty()) return make_error("via: empty sent-by");
  if (semi != std::string_view::npos) {
    std::string_view params = rest.substr(semi + 1);
    while (!params.empty()) {
      std::string_view item = params;
      if (const auto next = params.find(';');
          next != std::string_view::npos) {
        item = params.substr(0, next);
        params = params.substr(next + 1);
      } else {
        params = {};
      }
      item = trim(item);
      if (item.starts_with("branch=")) {
        via.branch = item.substr(7);
      } else if (item.starts_with("oc=")) {
        const std::string_view num = item.substr(3);
        double rate = 0.0;
        const auto [ptr, ec] =
            std::from_chars(num.data(), num.data() + num.size(), rate);
        if (ec == std::errc{} && ptr == num.data() + num.size() &&
            rate >= 0.0) {
          via.oc_rate = rate;
        }
      }
      // Other Via params (rport, received, ...) tolerated and dropped.
    }
  }
  return via;
}

/// Splits a header value on top-level commas — the combined-row form of
/// RFC 3261 7.3.1, "Via: a, b" being equivalent to two Via lines. Commas
/// inside angle brackets or double quotes do not split.
void split_header_values(std::string_view value,
                         std::vector<std::string_view>& out) {
  // Most values hold no comma at all: one memchr settles them.
  std::size_t pos = value.find(',');
  if (pos == std::string_view::npos) {
    out.push_back(value);
    return;
  }
  std::size_t start = 0;
  int angle = 0;
  pos = 0;
  while ((pos = value.find_first_of(",<>\"", pos)) != std::string_view::npos) {
    switch (value[pos]) {
      case '"': {
        const std::size_t close = value.find('"', pos + 1);
        if (close == std::string_view::npos) {
          out.push_back(value.substr(start));
          return;
        }
        pos = close + 1;
        continue;
      }
      case '<':
        ++angle;
        break;
      case '>':
        if (angle > 0) --angle;
        break;
      default:  // ','
        if (angle == 0) {
          out.push_back(value.substr(start, pos - start));
          start = pos + 1;
        }
        break;
    }
    ++pos;
  }
  out.push_back(value.substr(start));
}

/// Extracts the URI between angle brackets of "<...>" header values like
/// Route / Record-Route.
Result<Uri> parse_bracketed_uri(std::string_view value) {
  value = trim(value);
  if (value.size() >= 2 && value.front() == '<') {
    const auto close = value.find('>');
    if (close == std::string_view::npos) {
      return make_error("header: unbalanced '<'");
    }
    return Uri::parse(value.substr(1, close - 1));
  }
  return Uri::parse(value);
}

}  // namespace

Result<NameAddr> parse_name_addr(std::string_view text) {
  text = trim(text);
  NameAddr result;

  if (text.starts_with('"')) {
    const auto close = text.find('"', 1);
    if (close == std::string_view::npos) {
      return make_error("name-addr: unterminated display name");
    }
    result.display = std::string(text.substr(1, close - 1));
    text = trim(text.substr(close + 1));
  }

  std::string_view uri_text = text;
  std::string_view after;
  if (text.starts_with('<')) {
    const auto close = text.find('>');
    if (close == std::string_view::npos) {
      return make_error("name-addr: unbalanced '<'");
    }
    uri_text = text.substr(1, close - 1);
    after = text.substr(close + 1);
  } else {
    // Bare URI form: the tag (if any) trails after ';'. Since URI params
    // also use ';', split at ";tag=" specifically.
    if (const auto tag_pos = text.find(";tag=");
        tag_pos != std::string_view::npos) {
      uri_text = text.substr(0, tag_pos);
      after = text.substr(tag_pos);
    }
  }

  auto uri = Uri::parse(uri_text);
  if (!uri) return uri.error();
  result.uri = std::move(uri).value();

  // ;tag=... among the after-params.
  while (!after.empty()) {
    const auto semi = after.find(';');
    if (semi == std::string_view::npos) break;
    std::string_view item = after.substr(semi + 1);
    if (const auto next = item.find(';'); next != std::string_view::npos) {
      item = item.substr(0, next);
    }
    item = trim(item);
    if (item.starts_with("tag=")) {
      result.tag = std::string(item.substr(4));
      break;
    }
    after = after.substr(semi + 1);
  }
  return result;
}

Result<Message> Parser::parse(std::string_view wire) {
  std::string_view rest = wire;
  const std::string_view start_line = next_line(rest);
  if (start_line.empty()) return make_error("parse: empty start line");

  Message msg;
  detail::Dialog& ids = msg.dialog_.mut();
  if (start_line.starts_with("SIP/2.0 ")) {
    msg.is_request_ = false;
    std::string_view status_part = start_line.substr(8);
    const auto space = status_part.find(' ');
    std::string_view code_text = status_part.substr(0, space);
    int code = 0;
    if (!parse_int(code_text, code) || code < 100 || code > 699) {
      return make_error("parse: bad status code");
    }
    msg.status_code_ = static_cast<std::int16_t>(code);
    msg.reason_ = space == std::string_view::npos
                      ? std::string_view()
                      : trim(status_part.substr(space + 1));
  } else {
    msg.is_request_ = true;
    const auto sp1 = start_line.find(' ');
    const auto sp2 = start_line.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 == sp1) {
      return make_error("parse: malformed request line");
    }
    if (trim(start_line.substr(sp2 + 1)) != "SIP/2.0") {
      return make_error("parse: unsupported SIP version");
    }
    msg.method_ =
        static_cast<std::uint8_t>(parse_method(start_line.substr(0, sp1)));
    auto uri = Uri::parse(trim(start_line.substr(sp1 + 1, sp2 - sp1 - 1)));
    if (!uri) return uri.error();
    msg.target_.mut().request_uri = std::move(uri).value();
  }

  bool saw_call_id = false;
  bool saw_cseq = false;
  bool saw_from = false;
  bool saw_to = false;
  std::size_t content_length = 0;

  std::string folded;  // storage for unfolded multi-line header values
  std::vector<std::string_view> parts;
  SmallVector<Via, 4> vias;  // wire order: top first
  while (true) {
    if (rest.empty()) break;
    std::string_view line = next_line(rest);
    if (line.empty()) break;  // blank line: end of headers

    // RFC 3261 7.3: a line beginning with SP or HT continues the previous
    // header line; the break and leading whitespace collapse to one SP.
    if (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      folded.assign(line);
      while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
        const std::string_view continuation = trim(next_line(rest));
        folded += ' ';
        folded += continuation;
      }
      line = folded;
    }

    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      return make_error("parse: header without ':' — '" + std::string(line) +
                        "'");
    }
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));

    if (name == "Via" || name == "v") {
      parts.clear();
      split_header_values(value, parts);
      for (const std::string_view part : parts) {
        auto via = parse_via(part);
        if (!via) return via.error();
        vias.push_back(std::move(via).value());
      }
    } else if (name == "From" || name == "f") {
      auto na = parse_name_addr(value);
      if (!na) return na.error();
      ids.from = std::move(na).value();
      saw_from = true;
    } else if (name == "To" || name == "t") {
      auto na = parse_name_addr(value);
      if (!na) return na.error();
      ids.to = std::move(na).value();
      saw_to = true;
    } else if (name == "Call-ID" || name == "i") {
      ids.call_id = value;
      saw_call_id = true;
    } else if (name == "CSeq") {
      const auto space = value.find(' ');
      if (space == std::string_view::npos) {
        return make_error("parse: malformed CSeq");
      }
      if (!parse_u32(trim(value.substr(0, space)), ids.cseq.seq)) {
        return make_error("parse: bad CSeq number");
      }
      ids.cseq.method = parse_method(trim(value.substr(space + 1)));
      saw_cseq = true;
    } else if (name == "Contact" || name == "m") {
      auto na = parse_name_addr(value);
      if (!na) return na.error();
      msg.target_.mut().contact = std::move(na).value();
    } else if (name == "Max-Forwards") {
      if (!parse_int(value, msg.max_forwards_)) {
        return make_error("parse: bad Max-Forwards");
      }
    } else if (name == "Route") {
      parts.clear();
      split_header_values(value, parts);
      for (const std::string_view part : parts) {
        auto uri = parse_bracketed_uri(part);
        if (!uri) return uri.error();
        msg.routes_.mut().push_back(std::move(uri).value());
      }
    } else if (name == "Record-Route") {
      parts.clear();
      split_header_values(value, parts);
      for (const std::string_view part : parts) {
        auto uri = parse_bracketed_uri(part);
        if (!uri) return uri.error();
        msg.record_routes_.mut().push_back(std::move(uri).value());
      }
    } else if (name == "Content-Length" || name == "l") {
      int length = 0;
      if (!parse_int(value, length) || length < 0) {
        return make_error("parse: bad Content-Length");
      }
      content_length = static_cast<std::size_t>(length);
    } else {
      msg.extra_.mut().emplace_back(Token(name), value);
    }
  }

  if (!saw_call_id) return make_error("parse: missing Call-ID");
  if (!saw_cseq) return make_error("parse: missing CSeq");
  if (!saw_from) return make_error("parse: missing From");
  if (!saw_to) return make_error("parse: missing To");
  if (vias.empty()) return make_error("parse: missing Via");
  // The chain grows from the bottom: push in reverse wire order.
  for (auto it = vias.end(); it != vias.begin();) {
    msg.vias_.push(std::move(*--it));
  }

  if (content_length > rest.size()) {
    return make_error("parse: truncated body");
  }
  msg.set_body(std::string(rest.substr(0, content_length)));
  return msg;
}

}  // namespace svk::sip

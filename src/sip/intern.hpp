// Interned header strings.
//
// Some SIP values come from tiny, bounded vocabularies: the Via protocol
// ("SIP/2.0/UDP"), Via sent-by and URI hosts (one host string per
// simulated node or domain), URI schemes ("sip", "sips"), reason phrases
// (one per status code) and extension-header names. Storing them as
// std::string made every copy-on-forward clone pay a string copy (and
// usually a malloc) per value per hop. A Token instead holds a pointer into
// a process-lifetime intern table: copying a Via or Uri copies pointers,
// and equality is usually a pointer compare.
//
// The table is global, guarded by a shared_mutex (read-mostly: every value
// is interned once per process, then every further lookup takes the shared
// path), and node-based, so interned strings have stable addresses for the
// life of the process — Tokens may be copied freely across threads and
// outlive the thread that created them.
//
// Only bounded value sets belong here. URI users, tags, Call-IDs, branch
// parameters and header values are per-call or per-transaction and must
// stay plain std::string — interning them would grow the table without
// bound. Per-call code builds from Tokens interned once (a node's host, a
// static header name), so the run path does not take the lock per call.
// The parser interns whatever hosts and header names it reads; it is not on
// the run path.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

namespace svk::sip {

/// Interns `text`, returning a reference valid for the process lifetime.
const std::string& intern(std::string_view text);

/// Number of distinct strings interned so far (test/diagnostic hook for
/// pinning that the table stays bounded).
std::size_t intern_table_size();

/// A pointer to an interned string. Cheap to copy and compare; implicitly
/// convertible to std::string_view. Construction from text is explicit —
/// it costs a hash lookup — so accidental re-interning on hot paths shows
/// up in the code.
class Token {
 public:
  /// The empty token (does not touch the intern table).
  Token() noexcept;

  explicit Token(std::string_view text) : str_(&intern(text)) {}
  explicit Token(const char* text) : Token(std::string_view(text)) {}

  Token& operator=(std::string_view text) {
    str_ = &intern(text);
    return *this;
  }

  [[nodiscard]] const std::string& str() const noexcept { return *str_; }
  [[nodiscard]] std::string_view view() const noexcept { return *str_; }
  operator std::string_view() const noexcept { return *str_; }

  [[nodiscard]] bool empty() const noexcept { return str_->empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return str_->size(); }

  friend bool operator==(const Token& a, const Token& b) noexcept {
    return a.str_ == b.str_ || *a.str_ == *b.str_;
  }
  friend bool operator==(const Token& a, std::string_view b) noexcept {
    return *a.str_ == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const Token& t) {
    return os << *t.str_;
  }

 private:
  const std::string* str_;  // never null
};

}  // namespace svk::sip

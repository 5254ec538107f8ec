#include "sip/intern.hpp"

#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "common/flat_table.hpp"
#include "common/hash.hpp"

namespace svk::sip {
namespace {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct StringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

struct InternTable {
  std::shared_mutex mutex;
  // Node-based: element addresses survive rehash, so a returned reference
  // is stable even as the table grows.
  std::unordered_set<std::string, StringHash, StringEq> strings;
};

InternTable& table() {
  static InternTable* t = new InternTable();  // leaked: process lifetime
  return *t;
}

const std::string& empty_string() {
  static const std::string empty;
  return empty;
}

}  // namespace

const std::string& intern(std::string_view text) {
  if (text.empty()) return empty_string();
  // A per-thread cache in front of the locked table: the parser interns
  // every host and header name it reads, and the vocabulary is bounded, so
  // after the first sighting a value costs one unlocked lookup. It holds
  // pointers to the interned strings, which live for the process.
  thread_local common::FlatTable<const std::string*> cache;
  const std::uint64_t hash = common::key_hash(text);
  const auto same = [text](const std::string* s) { return *s == text; };
  if (const std::string* const* hit = cache.find(hash, same)) return **hit;
  InternTable& t = table();
  const std::string* interned = nullptr;
  {
    std::shared_lock lock(t.mutex);
    if (auto it = t.strings.find(text); it != t.strings.end()) {
      interned = &*it;
    }
  }
  if (interned == nullptr) {
    std::unique_lock lock(t.mutex);
    interned = &*t.strings.emplace(text).first;
  }
  cache.insert(hash, interned);
  return *interned;
}

std::size_t intern_table_size() {
  InternTable& t = table();
  std::shared_lock lock(t.mutex);
  return t.strings.size();
}

Token::Token() noexcept : str_(&empty_string()) {}

}  // namespace svk::sip

// The Via branch parameter, stored inline.
//
// A branch is per-transaction unique, so it cannot be interned like the
// Via's protocol and sent-by. The branches this simulator generates are
// 16-26 characters ("z9hG4bK-<element>-<counter>", "z9hG4bK-sl<hash>"),
// just past std::string's 15-character small-string buffer, so as a
// std::string every Via copy on the forward path cost a malloc. A Branch is
// 32 bytes, the size of a std::string, and holds up to 31 characters
// inline. Longer values (only a parser can produce them) fall back to one
// heap block.
#pragma once

#include <cstddef>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

namespace svk::sip {

/// A branch token: up to kInlineCapacity characters inline, longer ones on
/// the heap. Implicitly convertible to std::string_view, like Token.
class Branch {
 public:
  static constexpr std::size_t kInlineCapacity = 31;

  Branch() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): branches are plain values
  Branch(std::string_view text) { assign(text); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  Branch(const char* text) : Branch(std::string_view(text)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Branch(const std::string& text) : Branch(std::string_view(text)) {}

  Branch(const Branch& other) {
    if (other.is_inline()) {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    } else {
      assign(other.view());
    }
  }
  Branch(Branch&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.bytes_[kTagByte] = 0;
  }
  Branch& operator=(const Branch& other) {
    if (this != &other) *this = Branch(other);
    return *this;
  }
  Branch& operator=(Branch&& other) noexcept {
    if (this != &other) {
      release();
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      other.bytes_[kTagByte] = 0;
    }
    return *this;
  }
  ~Branch() { release(); }

  [[nodiscard]] bool is_inline() const noexcept {
    return tag() != kHeapTag;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return is_inline() ? tag() : heap_size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const char* data() const noexcept {
    return is_inline() ? bytes_ : heap_data();
  }
  [[nodiscard]] std::string_view view() const noexcept {
    return {data(), size()};
  }
  operator std::string_view() const noexcept { return view(); }
  [[nodiscard]] std::string str() const { return std::string(view()); }

  friend bool operator==(const Branch& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const Branch& b) {
    return os << b.view();
  }

 private:
  // Inline: bytes_[0..30] hold the characters and bytes_[31] the length.
  // On the heap: bytes_[0..7] hold the block pointer, bytes_[8..15] the
  // length, and bytes_[31] is kHeapTag.
  static constexpr std::size_t kTagByte = kInlineCapacity;
  static constexpr unsigned char kHeapTag = 0xff;

  [[nodiscard]] unsigned char tag() const noexcept {
    return static_cast<unsigned char>(bytes_[kTagByte]);
  }
  [[nodiscard]] const char* heap_data() const noexcept {
    const char* p;
    std::memcpy(&p, bytes_, sizeof(p));
    return p;
  }
  [[nodiscard]] std::size_t heap_size() const noexcept {
    std::size_t n;
    std::memcpy(&n, bytes_ + sizeof(char*), sizeof(n));
    return n;
  }

  /// Fills a freshly constructed (not yet owning) Branch.
  void assign(std::string_view text) {
    if (text.size() <= kInlineCapacity) {
      std::memcpy(bytes_, text.data(), text.size());
      bytes_[kTagByte] = static_cast<char>(text.size());
      return;
    }
    char* p = new char[text.size()];
    std::memcpy(p, text.data(), text.size());
    const std::size_t n = text.size();
    std::memcpy(bytes_, &p, sizeof(p));
    std::memcpy(bytes_ + sizeof(p), &n, sizeof(n));
    bytes_[kTagByte] = static_cast<char>(kHeapTag);
  }

  void release() noexcept {
    if (!is_inline()) delete[] heap_data();
  }

  alignas(8) char bytes_[kInlineCapacity + 1] = {};
};

static_assert(sizeof(Branch) == 32);

}  // namespace svk::sip

// Short per-call text stored inline: Via branches, Call-IDs and
// extension-header values.
//
// These values are unique per transaction or per call, so they cannot be
// interned like hosts and header names. The ones this simulator generates
// are 16-29 characters ("z9hG4bK-<element>-<counter>", "<host>-<n>"
// Call-IDs) and host-valued headers up to 18, just past std::string's
// 15-character small-string buffer, so as std::strings every copy on the
// forward path (a Via stack, a detached dialog block, a clone's
// headers) cost a malloc. An InlineText is 32 bytes, the size of a
// std::string, and holds up to 31 characters inline. Longer values (only a
// parser or a test can produce them) fall back to one heap block.
#pragma once

#include <cstddef>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

namespace svk::sip {

/// Text of up to kInlineCapacity characters inline, longer on the heap.
/// Implicitly convertible to std::string_view, like Token.
class InlineText {
 public:
  static constexpr std::size_t kInlineCapacity = 31;

  InlineText() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): plain text values
  InlineText(std::string_view text) { assign(text); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  InlineText(const char* text) : InlineText(std::string_view(text)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  InlineText(const std::string& text) : InlineText(std::string_view(text)) {}

  InlineText(const InlineText& other) {
    if (other.is_inline()) {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    } else {
      assign(other.view());
    }
  }
  InlineText(InlineText&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.bytes_[kTagByte] = 0;
  }
  InlineText& operator=(const InlineText& other) {
    if (this != &other) *this = InlineText(other);
    return *this;
  }
  InlineText& operator=(InlineText&& other) noexcept {
    if (this != &other) {
      release();
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      other.bytes_[kTagByte] = 0;
    }
    return *this;
  }
  ~InlineText() { release(); }

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

  friend bool operator==(const InlineText& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const InlineText& t) {
    return os << t.view();
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

  /// Fills a freshly constructed (not yet owning) InlineText.
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

static_assert(sizeof(InlineText) == 32);

/// The Via branch parameter: per-transaction unique, so kept inline.
using Branch = InlineText;

}  // namespace svk::sip

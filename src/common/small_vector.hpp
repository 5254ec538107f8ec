// A vector with inline storage for the first N elements.
//
// SIP messages hold a handful of tiny header lists (route sets, extension
// headers, the parser's Vias) whose common sizes are 0–4 entries.
// std::vector heap-allocates for the first element, so each non-empty list
// cost a malloc. SmallVector keeps up to N elements in the object itself
// and only touches the allocator when a list outgrows its inline buffer —
// which on the simulated topologies essentially never happens.
//
// Deliberately minimal: the subset of the std::vector interface the message
// model uses, contiguous iterators (raw pointers), strong typing via
// placement new. Elements must be nothrow-move-constructible or copyable;
// capacity never shrinks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace svk {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "inline capacity must be at least 1");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned element types are not supported");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  SmallVector() noexcept : data_(inline_ptr()) {}

  SmallVector(const SmallVector& other) : SmallVector() {
    assign(other.begin(), other.end());
  }

  SmallVector(SmallVector&& other) noexcept : SmallVector() {
    take_from(std::move(other));
  }

  SmallVector(std::initializer_list<T> init) : SmallVector() {
    assign(init.begin(), init.end());
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      destroy_all();
      release_heap();
      data_ = inline_ptr();
      capacity_ = N;
      take_from(std::move(other));
    }
    return *this;
  }

  ~SmallVector() {
    destroy_all();
    release_heap();
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] size_type capacity() const noexcept { return capacity_; }
  /// True while the elements still live in the inline buffer (perf tests
  /// pin that the common header counts never spill).
  [[nodiscard]] bool inlined() const noexcept { return data_ == inline_ptr(); }

  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  [[nodiscard]] reverse_iterator rbegin() noexcept {
    return reverse_iterator(end());
  }
  [[nodiscard]] const_reverse_iterator rbegin() const noexcept {
    return const_reverse_iterator(end());
  }
  [[nodiscard]] reverse_iterator rend() noexcept {
    return reverse_iterator(begin());
  }
  [[nodiscard]] const_reverse_iterator rend() const noexcept {
    return const_reverse_iterator(begin());
  }

  [[nodiscard]] T& operator[](size_type i) { return data_[i]; }
  [[nodiscard]] const T& operator[](size_type i) const { return data_[i]; }
  [[nodiscard]] T& front() { return data_[0]; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  void reserve(size_type n) {
    if (n > capacity_) grow_to(n);
  }

  void clear() noexcept {
    destroy_all();
    size_ = 0;
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    if constexpr (std::is_base_of_v<
                      std::random_access_iterator_tag,
                      typename std::iterator_traits<It>::iterator_category>) {
      reserve(static_cast<size_type>(std::distance(first, last)));
    }
    for (; first != last; ++first) emplace_back(*first);
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] T* inline_ptr() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  [[nodiscard]] const T* inline_ptr() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void destroy_all() noexcept {
    std::destroy(data_, data_ + size_);
  }

  void release_heap() noexcept {
    if (data_ != inline_ptr()) ::operator delete(data_);
  }

  /// Moves `other`'s contents into this (empty, inline-state) vector.
  void take_from(SmallVector&& other) noexcept {
    if (!other.inlined()) {
      // Steal the heap buffer wholesale.
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_ptr();
      other.capacity_ = N;
      other.size_ = 0;
      return;
    }
    for (size_type i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
    }
    size_ = other.size_;
    other.clear();
  }

  void grow_to(size_type n) {
    const size_type new_cap = std::max<size_type>(n, capacity_ * 2);
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (size_type i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap();
    data_ = fresh;
    capacity_ = new_cap;
  }

  alignas(alignof(T)) unsigned char inline_storage_[N * sizeof(T)];
  T* data_;
  size_type size_ = 0;
  size_type capacity_ = N;
};

}  // namespace svk

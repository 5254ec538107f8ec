// Small-buffer-optimized callables for simulator events, CPU jobs and
// transaction callbacks.
//
// std::function heap-allocates any target that is larger than 16 bytes or
// not trivially copyable (libstdc++). Nearly every callable on the call
// path captures a MessagePtr, a table handle or a string, so with
// std::function each scheduled event, CPU job and transaction callback cost
// a malloc/free. InlineFunction keeps the target in an inline buffer whose
// size each instance picks, and falls back to the heap only for a target
// that is larger than the buffer, aligned beyond a pointer, or whose move
// can throw. The buffer is pointer-aligned, not max_align_t-aligned, so an
// instance is its buffer plus the ops pointer with no padding.
//
// There is one template and two kinds of instance:
// - EventAction, the void() instance with 64 bytes inline and move-only,
//   holds every scheduled event and every CPU-queue job. 64 bytes fit the
//   network-delivery lambda (this + from + to + MessagePtr) and the proxy's
//   forward job (this + from + two MessagePtrs + target + flag).
// - txn::Callback<Sig> instances are copyable, with a 40-byte buffer sized
//   to the largest per-call transaction callback captures in src/ (see
//   txn/transaction.hpp).
//
// A capture of a const std::string (a const local, or a const& parameter,
// captured by copy) is a const member: the closure's move then copies the
// string, which can throw, so the closure goes to the heap. Per-call sites
// capture a handle to the state that holds the string instead (the user
// agents' call stores, workload/call_table.hpp).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace svk::sim {

template <typename Signature, std::size_t InlineSize, bool Copyable = false>
class InlineFunction;

/// Type-erased void callable with `InlineSize` bytes of inline storage.
/// Move-only unless `Copyable`, in which case only copy-constructible
/// targets are accepted. Calling an empty instance is undefined.
template <typename... Args, std::size_t InlineSize, bool Copyable>
class InlineFunction<void(Args...), InlineSize, Copyable> {
 public:
  static constexpr std::size_t kInlineSize = InlineSize;

  /// True when a target of type Fn lives in the inline buffer.
  template <typename Fn>
  static constexpr bool kStoresInline =
      sizeof(Fn) <= InlineSize && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  InlineFunction() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): `f(x, nullptr)` stays legal
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F, typename Fn = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<Fn, InlineFunction> &&
                                 std::is_invocable_v<Fn&, Args...> &&
                                 (!Copyable || std::is_copy_constructible_v<Fn>),
                             int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  InlineFunction(F&& f) {
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction& other)
    requires Copyable
  {
    if (other.ops_ != nullptr) {
      other.ops_->copy(buf_, other.buf_);
      ops_ = other.ops_;
    }
  }

  InlineFunction& operator=(const InlineFunction& other)
    requires Copyable
  {
    if (this != &other) *this = InlineFunction(other);
    return *this;
  }

  InlineFunction(const InlineFunction&) requires(!Copyable) = delete;
  InlineFunction& operator=(const InlineFunction&) requires(!Copyable) =
      delete;

  ~InlineFunction() { reset(); }

  /// Invokes the target, passing reference arguments through as
  /// references. Precondition: non-empty.
  void operator()(Args... args) {
    ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the target (if any) and becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  using CopyFn = void (*)(void* dst, const void* src);

  struct Ops {
    void (*invoke)(void* buf, Args&&... args);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    /// Copy-constructs dst's storage from src's (Copyable instances only).
    CopyFn copy;
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* b, Args&&... args) {
          (*static_cast<Fn*>(b))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        copy_fn<Fn>(),
        [](void* b) { static_cast<Fn*>(b)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* b, Args&&... args) {
          (**static_cast<Fn**>(b))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*static_cast<Fn**>(src));
        },
        copy_fn<Fn>(),
        [](void* b) { delete *static_cast<Fn**>(b); },
    };
    return &ops;
  }

  template <typename Fn>
  static constexpr CopyFn copy_fn() {
    if constexpr (!Copyable) {
      return nullptr;
    } else if constexpr (kStoresInline<Fn>) {
      return [](void* dst, const void* src) {
        ::new (dst) Fn(*static_cast<const Fn*>(src));
      };
    } else {
      return [](void* dst, const void* src) {
        ::new (dst) Fn*(new Fn(**static_cast<Fn* const*>(src)));
      };
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char buf_[InlineSize];
  const Ops* ops_ = nullptr;
};

/// The simulator's event callable (and a CPU-queue job): void(), 64 bytes
/// inline, move-only.
using EventAction = InlineFunction<void(), 64>;
static_assert(sizeof(EventAction) == 72);

}  // namespace svk::sim

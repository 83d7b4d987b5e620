// Move-only callable with inline storage, used as the DES event closure.
//
// std::function gives ~16 bytes of small-buffer storage on mainstream
// implementations; the router's flit-delivery closure captures a sink
// pointer, a Flit, a VC index and a cycle (~72 bytes), so with it every
// posted delivery would heap-allocate and be copied again on its way out.
// InplaceFn widens the inline buffer past the largest hot-path capture and
// is move-only, so callbacks move through the calendar and through
// ClockDomain::post's hand-off ring without allocation or copying.
// Closures larger than the buffer (or with throwing moves) still work via
// a heap fallback — correctness never depends on fitting.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace erapid::util {

/// Move-only `void()` callable with `Capacity` bytes of inline storage.
template <std::size_t Capacity>
class InplaceFn {
 public:
  InplaceFn() = default;
  InplaceFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InplaceFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      manage_ = [](Op op, void* p, void* q) {
        auto* self = std::launder(reinterpret_cast<Fn*>(p));
        if (op == Op::Move) {
          ::new (q) Fn(std::move(*self));
          self->~Fn();
        } else {
          self->~Fn();
        }
      };
    } else {
      // Heap fallback: the buffer holds a single owning pointer.
      inline_ = false;
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      manage_ = [](Op op, void* p, void* q) {
        auto* slot = std::launder(reinterpret_cast<Fn**>(p));
        if (op == Op::Move) {
          ::new (q) Fn*(*slot);
        } else {
          delete *slot;
        }
      };
    }
  }

  InplaceFn(InplaceFn&& other) noexcept { move_from(other); }

  InplaceFn& operator=(InplaceFn&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  InplaceFn(const InplaceFn&) = delete;
  InplaceFn& operator=(const InplaceFn&) = delete;

  ~InplaceFn() { destroy(); }

  void operator()() { invoke_(buf_); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the stored callable lives in the inline buffer (test hook).
  [[nodiscard]] bool is_inline() const { return inline_; }

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  enum class Op { Move, Destroy };

  void destroy() {
    if (manage_ != nullptr) manage_(Op::Destroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void move_from(InplaceFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    inline_ = other.inline_;
    if (manage_ != nullptr) manage_(Op::Move, other.buf_, buf_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte buf_[Capacity];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void*, void*) = nullptr;
  bool inline_ = true;
};

}  // namespace erapid::util

// The event kernel's action type: a move-only `void()` callable that keeps
// its closure inline.
//
// Every event the fabric schedules is a small closure — a `this` pointer, a
// few indices and at most one 48-byte router::Packet.  std::function stores
// only 16 bytes inline, so each packet hop used to cost a heap allocation.
// EventAction stores up to kInlineBytes inline (sized for the largest
// fabric closure, Machine::wire_links' link-flight handoff: this, two
// indices, a direction and a Packet) and falls back to the heap only for
// larger closures.  It is move-only, so a closure that owns a resource (a
// shared_ptr, a moved-in std::function) is destroyed exactly once.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace spinn::sim {

class EventAction {
 public:
  /// Inline capacity: the link-flight closure is 80 bytes.
  static constexpr std::size_t kInlineBytes = 80;

  EventAction() noexcept = default;

  /// Wrap any `void()` callable.  Implicit, like std::function, so call
  /// sites pass lambdas straight to the scheduling API.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventAction(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    using T = std::decay_t<F>;
    if constexpr (kFitsInline<T>) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
      ops_ = &kInlineOps<T>;
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<F>(f)));
      ops_ = &kHeapOps<T>;
    }
  }

  EventAction(EventAction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Run the closure.  It stays owned (and callable again) afterwards.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `dst`, then destroy the source in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename T>
  static constexpr bool kFitsInline =
      sizeof(T) <= kInlineBytes &&
      alignof(T) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<T*>(self))(); },
      [](void* dst, void* src) noexcept {
        T* from = static_cast<T*>(src);
        ::new (dst) T(std::move(*from));
        from->~T();
      },
      [](void* self) noexcept { static_cast<T*>(self)->~T(); },
  };

  /// Oversize closures live on the heap; the buffer holds the pointer.
  template <typename T>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<T**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) T*(*static_cast<T**>(src));
      },
      [](void* self) noexcept { delete *static_cast<T**>(self); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Raw storage: the closure (or, oversize, a pointer to it) as ops_ says.
  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace spinn::sim

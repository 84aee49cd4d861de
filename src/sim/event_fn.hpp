// Small-buffer-optimized, move-only callback type for simulator events.
//
// Every scheduled event used to carry a std::function<void()>: scheduling
// a lambda that captures more than std::function's tiny inline buffer
// heap-allocated, and the old priority_queue additionally *copied* the
// function out of top() before running it. EventFn fixes both costs:
// callables up to kInlineCapacity bytes live inside the event itself
// (the engine's dominant closure — `this` plus a few scalars — always
// fits), and the type is move-only so events are moved, never copied.
//
// Events are invoked with the firing time. A callable may accept it
// (`void(Ticks)`, the periodic-timer shape) or ignore it (`void()`, the
// one-shot shape); the () form is adapted at construction with zero
// overhead — the adapter is the same size as the callable it wraps.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/units.hpp"

namespace penelope::sim {

class EventFn {
 public:
  /// Callables at most this large (and at most max_align_t-aligned, and
  /// nothrow-move-constructible) are stored inline; larger ones fall
  /// back to a single heap allocation. 72 bytes is sized for the
  /// fabric's delivery closure: the Network pointer plus a whole 64-byte
  /// net::Message by value (network.cpp static_asserts the fit), so a
  /// scheduled delivery carries its message and never allocates. With
  /// the ops pointer an EventFn is then exactly 80 bytes, a multiple of
  /// max_align_t; one more inline word would round it up to 96 and make
  /// every event slot a fifth larger.
  static constexpr std::size_t kInlineCapacity = 72;

  /// True when a callable of type T is stored inline (no allocation).
  template <typename T>
  static constexpr bool kFitsInline =
      sizeof(T) <= kInlineCapacity &&
      alignof(T) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<T>;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, EventFn> &&
                (std::is_invocable_r_v<void, D&, common::Ticks> ||
                 std::is_invocable_r_v<void, D&>)>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_invocable_r_v<void, D&, common::Ticks>) {
      emplace<D>(std::forward<F>(f));
    } else {
      emplace<DropTicks<D>>(DropTicks<D>{std::forward<F>(f)});
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke with the firing time. Undefined if empty.
  void operator()(common::Ticks fired_at) { ops_->invoke(storage_, fired_at); }

 private:
  /// Adapter for callables that take no arguments: same size as the
  /// wrapped callable, so it never pushes a small capture off the
  /// inline path.
  template <typename D>
  struct DropTicks {
    D fn;
    void operator()(common::Ticks) { fn(); }
  };

  struct Ops {
    void (*invoke)(void* self, common::Ticks fired_at);
    /// Move-construct into `dst` raw storage, then destroy the source.
    /// nullptr means trivially relocatable: memcpy the whole buffer. This
    /// covers every trivially-copyable inline callable (the hot
    /// `this`-plus-scalars lambdas) and every heap-held callable (the
    /// buffer holds a pointer), so moving events — including vector
    /// reallocation inside the timer heap — is branch-plus-memcpy, with
    /// no indirect call.
    void (*relocate)(void* self, void* dst) noexcept;
    /// nullptr means trivially destructible: nothing to do.
    void (*destroy)(void* self) noexcept;
  };

  void relocate_from(EventFn& other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  template <typename T>
  static T* inline_ptr(void* storage) noexcept {
    return std::launder(reinterpret_cast<T*>(storage));
  }

  template <typename T>
  struct InlineOps {
    static void invoke(void* self, common::Ticks fired_at) {
      (*inline_ptr<T>(self))(fired_at);
    }
    static void relocate(void* self, void* dst) noexcept {
      T* src = inline_ptr<T>(self);
      ::new (dst) T(std::move(*src));
      src->~T();
    }
    static void destroy(void* self) noexcept { inline_ptr<T>(self)->~T(); }
    static constexpr Ops kOps{
        &invoke, std::is_trivially_copyable_v<T> ? nullptr : &relocate,
        std::is_trivially_destructible_v<T> ? nullptr : &destroy};
  };

  template <typename T>
  struct HeapOps {
    static T* held(void* self) noexcept {
      return *std::launder(reinterpret_cast<T**>(self));
    }
    static void invoke(void* self, common::Ticks fired_at) {
      (*held(self))(fired_at);
    }
    static void destroy(void* self) noexcept { delete held(self); }
    // relocate == nullptr: the held pointer moves by memcpy.
    static constexpr Ops kOps{&invoke, nullptr, &destroy};
  };

  template <typename T, typename Arg>
  void emplace(Arg&& arg) {
    if constexpr (kFitsInline<T>) {
      ::new (static_cast<void*>(storage_)) T(std::forward<Arg>(arg));
      ops_ = &InlineOps<T>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) T*(new T(std::forward<Arg>(arg)));
      ops_ = &HeapOps<T>::kOps;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace penelope::sim

// Move-only callable with inline-only storage, for hot-path predicates.
//
// The kernel layer passes small closures around by value (a Segment's
// still_blocked re-check travels behavior → segment → task), and with
// std::function every one of those moves is an indirect manager call even
// when the capture is a single pointer. InlineFunction stores the capture
// in place — there is deliberately no heap fallback, a static_assert keeps
// callables within the buffer — and trivially-copyable callables (all of
// the current ones) move by fixed-size memcpy with no indirect calls.
//
// This is the same small-buffer design as src/sim/event_callback.h; that
// type stays separate because the event queue's callback is mutable and
// void(), while these predicates are const-invocable with a result.

#ifndef SRC_BASE_INLINE_FUNCTION_H_
#define SRC_BASE_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace elsc {

template <typename R>
class InlineFunction {
 public:
  // Exactly two pointers: every predicate in the tree captures at most two
  // (the largest is the web server's [w, sock]). The buffer lives in every
  // Segment and every Task, so each extra byte here is paid per task.
  static constexpr size_t kInlineSize = 2 * sizeof(void*);

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, const std::decay_t<F>&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(void*),
                  "capture too large for InlineFunction; shrink it or capture by pointer");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFunction requires nothrow-movable callables");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      MoveFrom(other);
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        MoveFrom(other);
      }
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()() const { return ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    R (*invoke)(const void* storage);
    // Move-constructs the callable from `from` into `to`, destroying `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
    // Trivially-copyable callables relocate by memcpy, skip destroy.
    bool trivial;
  };

  template <typename Fn>
  struct OpsFor {
    static R Invoke(const void* storage) {
      return (*std::launder(reinterpret_cast<const Fn*>(storage)))();
    }
    static void Relocate(void* from, void* to) {
      Fn* src = std::launder(reinterpret_cast<Fn*>(from));
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, std::is_trivially_copyable_v<Fn>};
  };

  // Precondition: ops_ == other.ops_ != nullptr. Leaves `other` empty.
  void MoveFrom(InlineFunction& other) noexcept {
    if (ops_->trivial) {
      // Fixed-size, branch-free copy; tail bytes are indeterminate but
      // unused, which GCC's -Wuninitialized cannot see once this inlines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      std::memcpy(storage_, other.storage_, kInlineSize);
#pragma GCC diagnostic pop
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[kInlineSize];
};

}  // namespace elsc

#endif  // SRC_BASE_INLINE_FUNCTION_H_

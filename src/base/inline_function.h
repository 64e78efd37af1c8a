// Move-only callable with inline-only storage, for the simulator's two
// hottest closures: every event's callback (EventCallback, an
// InlineFunction<void, 48>, src/sim/event_queue.h) and a blocked task's
// wake-up re-check (Segment::still_blocked, an InlineFunction<bool>).
//
// Every simulated context switch, segment end, timer tick and wakeup runs a
// closure, and a predicate travels by value behavior → segment → task; with
// std::function each would be a heap allocation or an indirect manager call
// per move. InlineFunction stores the capture in place and has no heap
// fallback: a callable that is too big, over-aligned, throws when moved, or
// cannot be called as const returning R fails the constructor's constraint,
// so it does not compile (and std::is_constructible_v says so).
// Trivially-copyable callables (almost every closure in the tree: captures of
// pointers and integers) move by a fixed-size memcpy and need no destructor
// call.

#ifndef SRC_BASE_INLINE_FUNCTION_H_
#define SRC_BASE_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace elsc {

// The default size is exactly two pointers: every predicate in the tree
// captures at most two (the largest is the web server's [w, sock]). That
// buffer lives in every Segment and every Task, so each extra byte is paid
// per task.
template <typename R, size_t kSize = 2 * sizeof(void*)>
class InlineFunction {
  // What the buffer holds: a callable that fits, needs at most pointer
  // alignment, moves without throwing, and can be called as const for an R.
  template <typename Fn>
  static constexpr bool kStorable = sizeof(Fn) <= kSize && alignof(Fn) <= alignof(void*) &&
                                    std::is_nothrow_move_constructible_v<Fn> &&
                                    std::is_invocable_r_v<R, const Fn&>;

 public:
  static constexpr size_t kInlineSize = kSize;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction>) && kStorable<std::decay_t<F>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
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

  // Replaces the held callable with `f`, built straight into this buffer (the
  // event queue builds each event's closure in its slot this way). A
  // construction that throws leaves the function empty. An InlineFunction
  // rvalue moves in; an lvalue does not compile, because the type is
  // move-only, and neither does nullptr.
  template <typename F>
    requires std::is_same_v<F, InlineFunction> || kStorable<std::decay_t<F>>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<F, InlineFunction>) {
      *this = std::move(f);
    } else {
      Reset();
      Construct(std::forward<F>(f));
    }
  }

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
      const Fn& fn = *std::launder(reinterpret_cast<const Fn*>(storage));
      if constexpr (std::is_void_v<R>) {
        fn();  // A void function discards whatever the callable returns.
      } else {
        return fn();
      }
    }
    static void Relocate(void* from, void* to) {
      Fn* src = std::launder(reinterpret_cast<Fn*>(from));
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, std::is_trivially_copyable_v<Fn>};
  };

  // Precondition: empty. ops_ is set last, so a throwing construction leaves
  // the function empty.
  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  // Precondition: ops_ == other.ops_ != nullptr. Leaves `other` empty.
  void MoveFrom(InlineFunction& other) noexcept {
    if (ops_->trivial) {
      // Fixed-size, branch-free copy; tail bytes are indeterminate but
      // unused, which GCC's -Wuninitialized cannot see once this inlines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      std::memcpy(storage_, other.storage_, kSize);
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
  alignas(void*) unsigned char storage_[kSize];
};

}  // namespace elsc

#endif  // SRC_BASE_INLINE_FUNCTION_H_

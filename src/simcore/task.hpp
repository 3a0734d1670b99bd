#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "simcore/frame_arena.hpp"

namespace vmig::sim {

template <typename T>
class Task;

namespace detail {

/// Shared promise machinery: continuation chaining with symmetric transfer.
///
/// Frames are pooled: the promise's operator new/delete route through
/// FrameArena, so steady-state coroutine churn (a frame per intercepted
/// post-copy request, per pull) recycles storage instead of hitting the heap.
class TaskPromiseBase {
 public:
  // vmig-lint: d5-begin -- promise allocation hooks, not call sites: they
  // route frame storage through the FrameArena pool (which owns the blocks).
  static void* operator new(std::size_t n) { return FrameArena::allocate(n); }
  static void operator delete(void* p) noexcept { FrameArena::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FrameArena::deallocate(p);
  }
  // vmig-lint: d5-end

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto& promise = static_cast<TaskPromiseBase&>(h.promise());
      if (promise.continuation_) return promise.continuation_;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void set_continuation(std::coroutine_handle<> c) noexcept { continuation_ = c; }

 protected:
  std::coroutine_handle<> continuation_{};
};

template <typename T>
class TaskPromise final : public TaskPromiseBase {
 public:
  Task<T> get_return_object();

  template <typename U>
  void return_value(U&& v) {
    value_.emplace(std::forward<U>(v));
  }
  void unhandled_exception() { error_ = std::current_exception(); }

  T take_result() {
    if (error_) std::rethrow_exception(error_);
    assert(value_.has_value());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  std::exception_ptr error_;
};

template <>
class TaskPromise<void> final : public TaskPromiseBase {
 public:
  Task<void> get_return_object();

  void return_void() noexcept {}
  void unhandled_exception() { error_ = std::current_exception(); }

  void take_result() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
};

}  // namespace detail

/// A lazily-started coroutine returning T.
///
/// `Task` is the unit of concurrency in the simulation: protocol logic
/// (pre-copy loops, push/pull engines, workloads) is written as straight-line
/// coroutines that `co_await` simulated delays, channels and sub-tasks.
///
/// Ownership: the `Task` object owns the coroutine frame and destroys it on
/// destruction. Awaiting a task (`co_await std::move(t)` or `co_await
/// some_task_expr()`) starts it and resumes the awaiter when it completes,
/// propagating exceptions. Top-level tasks are handed to
/// `Simulator::spawn`, which keeps the frame alive until completion.
///
/// A default-constructed `Task<void>{}` holds no frame and is already
/// complete: awaiting it neither suspends nor allocates. Functions whose
/// common case has nothing to wait for (`vm::Domain::barrier` while the
/// domain runs) return one instead of starting a coroutine.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : h_{h} {}
  Task(Task&& o) noexcept : h_{std::exchange(o.h_, {})} {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const noexcept { return !h_ || h_.done(); }

  /// Run the coroutine until its first suspension point (or completion).
  /// Used by the simulator to kick off root tasks.
  void start() {
    assert(h_ && !h_.done());
    h_.resume();
  }

  /// Retrieve the result after completion (used by root-task plumbing).
  T result() { return h_.promise().take_result(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().set_continuation(cont);
        return h;  // symmetric transfer: start the child immediately
      }
      T await_resume() {
        if constexpr (std::is_void_v<T>) {
          if (!h) return;  // Task<void>{}: ready, nothing to collect
        }
        return h.promise().take_result();
      }
    };
    return Awaiter{h_};
  }

 private:
  handle_type h_{};
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>{std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace vmig::sim

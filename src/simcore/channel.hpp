#pragma once

#include <bit>
#include <cstddef>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/notifier.hpp"

namespace vmig::sim {

/// Bounded FIFO channel between coroutines (CSP-style message passing).
///
/// `send` suspends while the channel is full (backpressure — used, e.g., by
/// the Bradford delta-forwarding baseline to model write throttling);
/// `recv` suspends while it is empty. `close()` wakes everyone: pending and
/// future `recv`s drain remaining items then return nullopt; `send`s on a
/// closed channel return false.
///
/// `send` and `recv` return awaiters, not coroutines: `co_await ch.recv()`
/// starts no frame. A waiter woken while its predicate still blocks (two
/// receivers, one item) re-queues itself at the tail, exactly where a
/// re-checking loop's fresh wait would land. Await them where they are made.
///
/// Storage is a power-of-two ring pre-reserved at construction. A deque
/// would free and re-malloc its node blocks as a FIFO wraps, so a busy
/// channel allocated forever; the ring makes steady-state send/recv
/// allocation-free — it only grows (amortized doubling) when depth exceeds
/// every previous high-water mark.
template <typename T>
class Channel {
  // GCC 12's coroutine ramp double-destroys an elided aggregate prvalue
  // argument bound to a coroutine's by-value parameter, freeing buffers that
  // were already moved out (observed as heap-use-after-free under ASan).
  // Items reach a channel through such parameters (producer coroutines,
  // MessageStream's shaped send), so message types must be non-aggregate
  // (any user-declared constructor suffices) or trivially destructible.
  static_assert(std::is_trivially_destructible_v<T> || !std::is_aggregate_v<T>,
                "give T a user-declared constructor (GCC 12 coroutine "
                "parameter double-destruction workaround)");

 public:
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  explicit Channel(Simulator& sim, std::size_t capacity = kUnbounded)
      : capacity_{capacity == 0 ? 1 : capacity},
        not_empty_{sim},
        not_full_{sim} {
    // Reserve the ring up front (clamped for unbounded/huge capacities) so
    // the construction site — per-migration setup — pays the allocation,
    // not the first sends on the dispatch path.
    const std::size_t want =
        capacity_ == kUnbounded ? 64 : std::min<std::size_t>(capacity_, 64);
    buf_.resize(std::bit_ceil(std::max<std::size_t>(want, 8)));
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Non-suspending send. Fails when full or closed.
  bool try_send(T v) {
    if (closed_ || count_ >= capacity_) return false;
    push_item(std::move(v));
    not_empty_.notify_one();
    return true;
  }

  /// Awaiter of `send`: suspends while the channel is full; resumes with
  /// false if the channel was closed, else with the item enqueued.
  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(Channel& ch, T&& v)
        : ch_{&ch}, v_{std::move(v)}, wait_{ch.not_full_, &send_blocked, &ch} {}

    bool await_ready() const noexcept { return !send_blocked(ch_); }
    void await_suspend(std::coroutine_handle<> h) { wait_.await_suspend(h); }
    bool await_resume() {
      if (ch_->closed_) return false;
      ch_->push_item(std::move(v_));
      ch_->not_empty_.notify_one();
      return true;
    }

   private:
    Channel* ch_;
    T v_;
    Notifier::Awaiter wait_;
  };

  /// Awaiter of `recv`: suspends while the channel is empty and open;
  /// resumes with the oldest item, or nullopt once closed and drained.
  class [[nodiscard]] RecvAwaiter {
   public:
    explicit RecvAwaiter(Channel& ch)
        : ch_{&ch}, wait_{ch.not_empty_, &recv_blocked, &ch} {}

    bool await_ready() const noexcept { return !recv_blocked(ch_); }
    void await_suspend(std::coroutine_handle<> h) { wait_.await_suspend(h); }
    std::optional<T> await_resume() { return ch_->try_recv(); }

   private:
    Channel* ch_;
    Notifier::Awaiter wait_;
  };

  /// Suspending send; resumes with false if the channel was closed.
  SendAwaiter send(T v) { return SendAwaiter{*this, std::move(v)}; }

  /// Non-suspending receive.
  std::optional<T> try_recv() {
    if (count_ == 0) return std::nullopt;
    std::optional<T> v{pop_item()};
    not_full_.notify_one();
    return v;
  }

  /// Suspending receive; nullopt means closed-and-drained.
  RecvAwaiter recv() { return RecvAwaiter{*this}; }

  void close() {
    if (closed_) return;
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const noexcept { return closed_; }
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  static bool send_blocked(const void* ch) noexcept {
    const auto* c = static_cast<const Channel*>(ch);
    return !c->closed_ && c->count_ >= c->capacity_;
  }
  static bool recv_blocked(const void* ch) noexcept {
    const auto* c = static_cast<const Channel*>(ch);
    return c->count_ == 0 && !c->closed_;
  }

  void push_item(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)].emplace(std::move(v));
    ++count_;
  }

  T pop_item() {
    T v = std::move(*buf_[head_]);
    buf_[head_].reset();
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return v;
  }

  // Double the ring, re-linearizing FIFO order from head_. Hit only when
  // depth exceeds every previous high-water mark (amortized growth). h2-ok
  void grow() {
    std::vector<std::optional<T>> next(buf_.size() * 2);  // h2-ok
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::size_t capacity_;
  std::vector<std::optional<T>> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  Notifier not_empty_;
  Notifier not_full_;
  bool closed_ = false;
};

}  // namespace vmig::sim

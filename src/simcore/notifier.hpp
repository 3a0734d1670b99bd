#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>

#include "simcore/simulator.hpp"
#include "simcore/task.hpp"

namespace vmig::sim {

/// A condition-variable-like wakeup primitive for coroutines.
///
/// `co_await notifier.wait()` suspends until `notify_one`/`notify_all`.
/// Wakeups are edge-triggered: a notify with no waiters is lost, so callers
/// must re-check their predicate in a loop (exactly like a condition
/// variable). Resumption is routed through the simulator's event queue at the
/// current time, which keeps execution order deterministic and avoids deep
/// recursive resume chains.
///
/// Lifetime: a waiter destroyed while queued (its coroutine frame torn down)
/// deregisters itself; a Notifier destroyed with waiters still queued orphans
/// them (they will simply never resume — their frames are owned and destroyed
/// by the simulator). The Simulator must outlive both, which holds when the
/// Simulator is declared before the objects owning Notifiers.
class Notifier {
 public:
  explicit Notifier(Simulator& sim) : sim_{&sim} {}
  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;
  ~Notifier();

  /// Predicate a woken waiter re-checks before it resumes (`ctx` is the
  /// object the waiter waits on); true means it still cannot proceed.
  using Blocked = bool (*)(const void* ctx);

  class [[nodiscard]] Awaiter {
   public:
    explicit Awaiter(Notifier& n) : n_{&n} {}
    /// A waiter whose `blocked(ctx)` still holds when its wakeup event runs
    /// goes back to the tail of the queue instead of resuming: the queue
    /// position and events of a coroutine that re-checks its predicate in
    /// a loop and waits again, without a coroutine to run the loop.
    Awaiter(Notifier& n, Blocked blocked, const void* ctx)
        : n_{&n}, blocked_{blocked}, ctx_{ctx} {}
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;
    ~Awaiter();

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() noexcept {}

   private:
    friend class Notifier;
    enum class State : std::uint8_t { kCreated, kQueued, kNotified, kResumed, kOrphaned };
    Notifier* n_;
    Blocked blocked_ = nullptr;
    const void* ctx_ = nullptr;
    Simulator* sim_ = nullptr;
    std::coroutine_handle<> h_{};
    Simulator::TimerId timer_ = 0;
    State state_ = State::kCreated;
    Awaiter* prev_ = nullptr;
    Awaiter* next_ = nullptr;
  };

  /// Returns an awaitable that suspends the caller until notified.
  Awaiter wait() { return Awaiter{*this}; }

  /// Wake the oldest waiter. Returns the number woken (0 or 1).
  std::size_t notify_one();
  /// Wake all current waiters. Returns the number woken.
  std::size_t notify_all();

  std::size_t waiter_count() const noexcept { return count_; }

 private:
  void enqueue(Awaiter* w);
  void unlink(Awaiter* w);
  void fire(Awaiter* w);

  Simulator* sim_;
  Awaiter* head_ = nullptr;
  Awaiter* tail_ = nullptr;
  std::size_t count_ = 0;
};

/// One-shot latch: waits pass immediately once opened.
///
/// Unlike a raw Notifier, a Gate has no spurious wakeups: its waiters are
/// only ever notified by open(). wait() therefore does NOT re-check the
/// flag after resuming — deliberately, so that `gate->open(); delete gate;`
/// is safe even though the waiters' resumptions are still queued in the
/// simulator (they never touch the Gate again).
class Gate {
 public:
  explicit Gate(Simulator& sim) : n_{sim} {}

  bool is_open() const noexcept { return open_; }
  void open() {
    open_ = true;
    n_.notify_all();
  }

  /// Suspends until the gate opens (immediately if already open).
  Task<void> wait() {
    if (open_) co_return;
    co_await n_.wait();
  }

  /// Recycle support (core::GatePool): back to the closed state. Only valid
  /// with no queued waiter — after open() every waiter has been handed to
  /// the simulator, so an opened gate can be reset immediately.
  void reset() noexcept {
    assert(n_.waiter_count() == 0);
    open_ = false;
  }

 private:
  Notifier n_;
  bool open_ = false;
};

}  // namespace vmig::sim

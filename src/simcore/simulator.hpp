#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace vmig::sim {

class Simulator;

namespace detail {

/// Completion record shared between a spawned root task and its handle.
struct JoinState {
  Simulator* sim = nullptr;
  std::string name;
  bool done = false;
  std::exception_ptr error;
  // Join is implemented by polling + notification through the simulator's
  // timer queue; see SpawnHandle::join. Nearly every spawn has at most one
  // joiner, so the first is stored inline — a fresh vector would malloc on
  // the dispatch path for every joined spawn.
  std::coroutine_handle<> joiner0{};
  std::vector<std::coroutine_handle<>> extra_joiners;

  void add_joiner(std::coroutine_handle<> h) {
    if (!joiner0) {
      joiner0 = h;
    } else {
      extra_joiners.push_back(h);  // h2-ok
    }
  }
};

}  // namespace detail

/// Handle to a task running under `Simulator::spawn`.
///
/// Copies share the same underlying completion state. `join()` suspends the
/// calling coroutine until the spawned task finishes.
class SpawnHandle {
 public:
  SpawnHandle() = default;

  bool valid() const noexcept { return static_cast<bool>(st_); }
  bool done() const noexcept { return !st_ || st_->done; }
  const std::string& name() const;

  /// Awaitable: suspends until the spawned task completes.
  auto operator co_await() const noexcept {
    struct Awaiter {
      std::shared_ptr<detail::JoinState> st;
      bool await_ready() const noexcept { return !st || st->done; }
      void await_suspend(std::coroutine_handle<> h) { st->add_joiner(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{st_};
  }

 private:
  friend class Simulator;
  explicit SpawnHandle(std::shared_ptr<detail::JoinState> st) : st_{std::move(st)} {}
  std::shared_ptr<detail::JoinState> st_;
};

/// Awaitable returned by `Simulator::delay`.
///
/// Cancels its timer if the awaiting coroutine frame is destroyed before the
/// timer fires, so tearing down a simulation mid-flight is safe. `timer_` is
/// nonzero exactly while the timer is armed and has not fired (a TimerId is
/// never 0; the handler zeroes it before resuming).
class DelayAwaiter {
 public:
  DelayAwaiter(Simulator& sim, Duration d) : sim_{sim}, d_{d} {}
  DelayAwaiter(const DelayAwaiter&) = delete;
  DelayAwaiter& operator=(const DelayAwaiter&) = delete;
  ~DelayAwaiter();

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() noexcept {}

 private:
  Simulator& sim_;
  Duration d_;
  std::uint64_t timer_ = 0;
};

/// Deterministic single-threaded discrete-event simulator.
///
/// Events fire in (time, insertion-order) order, so runs are exactly
/// reproducible. Timers are cancellable; coroutine tasks are spawned as
/// "root" processes whose frames the simulator owns until completion.
///
/// The pending-event set is one bucketed *calendar queue* (Brown '88)
/// rather than a binary heap: time is divided into fixed-width buckets
/// arranged in a ring of "days"; events beyond one ring revolution (a
/// "year") wait in an overflow list. Insert is O(1) amortized (append to a
/// day bucket), extract is pop-from-sorted-agenda; only the current day's
/// handful of events is ever sorted, and an occupancy bitmap lets the
/// refill skip empty days 64 at a time, so millisecond-spaced events cost a
/// few word probes each rather than one probe per empty day.
/// Cancellation is lazy — a generation-checked slot arena marks the timer
/// dead and the queue entry is dropped when encountered — so cancel is O(1)
/// and never rummages through buckets. All steady-state structures (slot
/// arena, day buckets, agenda, overflow) recycle their storage, so
/// schedule/fire/cancel cycles allocate nothing once warm. See
/// docs/DETERMINISM.md for the (time, seq) ordering argument.
class Simulator {
 public:
  using TimerId = std::uint64_t;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  TimePoint now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (clamped to now if in the past).
  TimerId schedule_at(TimePoint t, std::function<void()> fn);
  /// Schedule `fn` after `d` (clamped to zero if negative).
  TimerId schedule_after(Duration d, std::function<void()> fn);
  /// Cancel a pending timer. Returns false if already fired or cancelled.
  bool cancel(TimerId id);

  /// Process the single earliest pending event. Returns false if none.
  bool step();
  /// Run until the event queue is empty. Returns events processed.
  std::size_t run();
  /// Run events with time <= t; the clock lands on exactly t.
  std::size_t run_until(TimePoint t);
  /// Run events for the next `d` of simulated time.
  std::size_t run_for(Duration d);

  bool has_pending() const noexcept { return live_count_ > 0; }
  std::size_t pending_count() const noexcept { return live_count_; }
  std::uint64_t events_processed() const noexcept { return events_processed_; }
  /// Calendar work spent finding events: ring buckets plus occupancy words
  /// the agenda refill inspected. Deterministic, and it grows with the
  /// events fired, not with the simulated idle time between them.
  std::uint64_t calendar_probes() const noexcept { return calendar_probes_; }
  /// Calendar occupancy: current-day agenda entries plus entries resident
  /// in ring buckets. Both may include lazily-cancelled stale entries;
  /// overflow-list entries are not counted. Exact and replay-stable.
  std::size_t calendar_queued() const noexcept {
    return agenda_.size() + ring_count_;
  }
  /// Coroutine frames allocated on this thread since the simulator was
  /// constructed. Deterministic, and exact for the usual one simulator per
  /// thread; a second live simulator's frames would count here too.
  std::uint64_t frames_created() const noexcept {
    return detail::FrameArena::allocations() - frames_base_;
  }

  // ---- Observer-tick census ----
  // Self-re-arming observer timers (the Registry and Rollup samplers) park
  // when the queue drains so they never wedge run(). "Drained" must not
  // count *other* observers' ticks, or two samplers keep each other alive
  // forever: each one's park test would see the other's pending tick.
  // Observers increment when arming their tick, decrement when it fires,
  // and park unless `pending_count() > observer_ticks()` — i.e. unless
  // something other than observer ticks is still queued.
  void note_observer_tick_armed() noexcept { ++observer_ticks_; }
  void note_observer_tick_fired() noexcept { --observer_ticks_; }
  std::size_t observer_ticks() const noexcept { return observer_ticks_; }

  /// Launch a coroutine as a root process. The simulator owns the frame;
  /// uncaught exceptions are rethrown from run()/step().
  SpawnHandle spawn(Task<void> task, std::string name = {});

  /// Awaitable pause of simulated time. `delay(Duration::zero())` yields
  /// through the event queue (other ready events run first).
  [[nodiscard]] DelayAwaiter delay(Duration d) { return DelayAwaiter{*this, d}; }

  // ---- Fast-forward mode ----

  /// When on, fast-forward-aware workload models (workloads::SteadyWriter)
  /// replace idle per-tick events with closed-form dirty-rate advancement
  /// settled at observation points; simulated time jumps straight to the
  /// next migration-relevant event. The Simulator itself only carries the
  /// mode flag — the engine's event machinery is identical either way, which
  /// is what makes the A/B byte-identity pin (docs/SCALE.md) meaningful.
  void set_fast_forward(bool on) noexcept { fast_forward_ = on; }
  bool fast_forward() const noexcept { return fast_forward_; }

  /// Fast-forward bulk-settle accounting: workload models that fold dormant
  /// stretches into closed-form advancement (workloads::SteadyWriter) note
  /// each bulk settle here, so fleet telemetry can report how much of a run
  /// was fast-forwarded without reaching into every writer.
  void note_ff_settle() noexcept { ++ff_settles_; }
  std::uint64_t ff_settles() const noexcept { return ff_settles_; }

  /// Number of live (unfinished) root tasks.
  std::size_t live_root_count() const;

  /// Narrate every schedule/cancel/fire to stderr. Off by default; plumbed
  /// explicitly from the CLI (`vmig_sim --sim-trace`) rather than read from
  /// the environment, so a run's behavior is a function of its arguments.
  void set_debug_trace(bool on) noexcept { debug_trace_ = on; }
  bool debug_trace() const noexcept { return debug_trace_; }

 private:
  // Calendar geometry: 8192 buckets of 8.192 us each (one "year" = 67 ms of
  // simulated time per ring revolution). Migration events cluster at
  // us-to-ms horizons, so the ring absorbs nearly everything; multi-second
  // timeouts sit in the overflow list and are swept in once per revolution.
  static constexpr std::uint64_t kBucketShift = 13;  // 2^13 ns bucket width
  static constexpr std::uint64_t kBuckets = 8192;    // power of two
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;
  static constexpr std::uint64_t kOccupancyWords = kBuckets / 64;

  /// One armed (or recycled) timer. `gen` distinguishes a live timer from a
  /// stale queue entry pointing at a recycled slot; it is never 0 so a
  /// TimerId is never 0 (callers use 0 as "no timer").
  struct TimerSlot {
    std::function<void()> fn;
    std::uint32_t gen = 1;
    bool armed = false;
  };

  /// POD queue entry; (t_ns, seq) is the deterministic total order.
  struct Entry {
    std::int64_t t_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Pooled chain link: ring buckets and the overflow list are intrusive
  /// singly-linked chains through a shared node arena, so placing an event
  /// in a bucket never allocates — even a bucket touched for the first
  /// time. Chain order is arbitrary; refill_agenda sorts by (t, seq).
  struct Node {
    Entry e;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Descending (t, seq): the agenda is popped from the back.
  struct AgendaCmp {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t_ns != b.t_ns) return a.t_ns > b.t_ns;
      return a.seq > b.seq;
    }
  };

  struct RootTask {
    Task<void> wrapper;
    std::shared_ptr<detail::JoinState> state;
  };

  Task<void> root_runner(Task<void> inner, std::shared_ptr<detail::JoinState> st);
  void reap_finished_roots();
  void rethrow_pending();

  static std::uint64_t bucket_of(std::int64_t t_ns) noexcept {
    return static_cast<std::uint64_t>(t_ns) >> kBucketShift;
  }
  bool entry_live(const Entry& e) const noexcept {
    const TimerSlot& s = slots_[e.slot];
    return s.gen == e.gen && s.armed;
  }
  void place(const Entry& e);
  /// Re-file an existing pooled node after an epoch move (agenda inserts
  /// free the node; bucket/overflow placements re-link it).
  void place_node(std::uint32_t n);
  /// Chain node `n` onto ring bucket `b` and mark the bucket occupied.
  void push_bucket(std::uint32_t n, std::uint64_t b);
  /// First occupied ring slot in [from, kBuckets), or kBuckets if none.
  std::uint64_t next_occupied(std::uint64_t from);
  std::uint32_t alloc_node(const Entry& e);
  void release_slot(std::uint32_t slot);
  /// Earliest live entry (always agenda_.back() after this), or nullptr.
  const Entry* peek_live();
  /// Refill the agenda from the ring / overflow; pre: agenda empty, a timer
  /// is armed.
  void refill_agenda();
  /// Move overflow entries that now fall inside the ring year into place.
  void sweep_overflow();
  /// Fire the earliest pending event if its time is <= limit_ns.
  bool step_until(std::int64_t limit_ns);

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  bool fast_forward_ = false;

  // -- calendar queue state --
  std::vector<TimerSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Node> nodes_;                 ///< chain-node arena
  std::vector<std::uint32_t> free_nodes_;   ///< recycled node indices
  std::vector<Entry> agenda_;               ///< current-day events, sorted desc
  std::vector<std::uint32_t> bucket_head_;  ///< ring of future days (chains)
  /// One bit per ring bucket holding a chain, so refill_agenda jumps
  /// straight to the next non-empty day instead of walking empty ones.
  std::array<std::uint64_t, kOccupancyWords> occupied_{};
  std::uint32_t overflow_head_ = kNil;      ///< events >= one year out
  std::uint64_t epoch_bucket_ = 0;          ///< day the agenda was drawn from
  std::size_t ring_count_ = 0;              ///< entries resident in buckets
  std::size_t live_count_ = 0;              ///< armed timers
  std::size_t observer_ticks_ = 0;          ///< armed parkable sampler ticks

  std::vector<RootTask> roots_;
  std::exception_ptr pending_error_;
  std::uint64_t events_processed_ = 0;
  std::uint64_t calendar_probes_ = 0;
  std::uint64_t frames_base_ = detail::FrameArena::allocations();
  std::uint64_t ff_settles_ = 0;
  bool debug_trace_ = false;
};

}  // namespace vmig::sim

#include "simcore/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <limits>

#include "obs/profiler.hpp"

namespace vmig::sim {

const std::string& SpawnHandle::name() const {
  static const std::string kEmpty;
  return st_ ? st_->name : kEmpty;
}

DelayAwaiter::~DelayAwaiter() {
  if (timer_ != 0) sim_.cancel(timer_);
}

void DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  const Duration d = d_ < Duration::zero() ? Duration::zero() : d_;
  timer_ = sim_.schedule_after(d, [this, h] {
    timer_ = 0;
    h.resume();  // `this` may be destroyed past this point
  });
}

Simulator::Simulator() { bucket_head_.assign(kBuckets, kNil); }

Simulator::~Simulator() {
  // Destroy root frames first: their awaiter destructors may cancel timers,
  // which touches the slot arena, so roots_ must go before the queue state.
  roots_.clear();
}

// vmig-lint: hot-begin -- timer insert/cancel: every scheduled event passes
// through here; steady state must reuse the slot arena and bucket storage
// vmig-lint: h1-ok -- the callable is moved into a recycled slot, not copied
Simulator::TimerId Simulator::schedule_at(TimePoint t, std::function<void()> fn) {
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // vmig-lint: h2-ok -- arena growth: happens once
                            // per high-water mark, then slots recycle
    // The free list never holds more slots than the arena, so sizing it
    // with the arena keeps the frees in step() off the allocator.
    free_slots_.reserve(slots_.capacity());
  }
  TimerSlot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  const TimerId id = (static_cast<TimerId>(slot) << 32) | s.gen;
  if (debug_trace_) {
    std::fprintf(stderr, "sim: schedule %llu at %.6f\n",
                 static_cast<unsigned long long>(id), t.to_seconds());
  }
  place(Entry{t.ns(), next_seq_++, slot, s.gen});
  ++live_count_;
  return id;
}

// vmig-lint: h1-ok -- forwarding move into schedule_at, no copy
Simulator::TimerId Simulator::schedule_after(Duration d, std::function<void()> fn) {
  if (d < Duration::zero()) d = Duration::zero();
  return schedule_at(now_ + d, std::move(fn));
}

bool Simulator::cancel(TimerId id) {
  if (debug_trace_) {
    std::fprintf(stderr, "sim: cancel %llu\n",
                 static_cast<unsigned long long>(id));
  }
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot >= slots_.size()) return false;
  TimerSlot& s = slots_[slot];
  if (s.gen != gen || !s.armed) return false;
  // Lazy cancellation: disarm the slot and recycle it now; the queue entry
  // (wherever it sits — agenda, ring, or overflow) is detected stale by its
  // generation when the calendar reaches it.
  s.armed = false;
  s.fn = nullptr;
  release_slot(slot);
  --live_count_;
  return true;
}

std::uint32_t Simulator::alloc_node(const Entry& e) {
  std::uint32_t n;
  if (!free_nodes_.empty()) {
    n = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();  // vmig-lint: h2-ok -- node-arena growth: once per
                            // high-water mark, then nodes recycle
  }
  nodes_[n].e = e;
  nodes_[n].next = kNil;
  return n;
}

void Simulator::place(const Entry& e) {
  const std::uint64_t b = bucket_of(e.t_ns);
  if (b <= epoch_bucket_) {
    // Due today (or in the past-clamped present): keep the agenda sorted
    // descending so the minimum stays at the back.
    const auto pos =
        std::upper_bound(agenda_.begin(), agenda_.end(), e, AgendaCmp{});
    agenda_.insert(pos, e);  // vmig-lint: h2-ok -- within retained capacity
                             // after warmup; the agenda drains every day
  } else if (b - epoch_bucket_ < kBuckets) {
    // Chain a pooled node onto the day's bucket: no allocation even for a
    // bucket touched for the first time (the old vector-per-bucket layout
    // cold-started every bucket's capacity).
    push_bucket(alloc_node(e), b);
  } else {
    const std::uint32_t n = alloc_node(e);
    nodes_[n].next = overflow_head_;
    overflow_head_ = n;
  }
}

void Simulator::place_node(std::uint32_t n) {
  const Entry& e = nodes_[n].e;
  const std::uint64_t b = bucket_of(e.t_ns);
  if (b <= epoch_bucket_) {
    const auto pos =
        std::upper_bound(agenda_.begin(), agenda_.end(), e, AgendaCmp{});
    agenda_.insert(pos, e);  // vmig-lint: h2-ok -- retained capacity
    free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
  } else if (b - epoch_bucket_ < kBuckets) {
    push_bucket(n, b);
  } else {
    nodes_[n].next = overflow_head_;
    overflow_head_ = n;
  }
}

void Simulator::push_bucket(std::uint32_t n, std::uint64_t b) {
  const std::uint64_t slot = b & kBucketMask;
  nodes_[n].next = bucket_head_[slot];
  bucket_head_[slot] = n;
  occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++ring_count_;
}
// vmig-lint: hot-end

void Simulator::release_slot(std::uint32_t slot) {
  TimerSlot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // gen 0 is reserved so TimerId is never 0
  free_slots_.push_back(slot);
}

// vmig-lint: hot-begin -- timer extract: the event loop's inner machinery;
// must not allocate per event once bucket/agenda capacity is warm
const Simulator::Entry* Simulator::peek_live() {
  for (;;) {
    while (!agenda_.empty()) {
      if (entry_live(agenda_.back())) return &agenda_.back();
      agenda_.pop_back();  // stale (cancelled) entry: lazy deletion
    }
    if (live_count_ == 0) return nullptr;
    refill_agenda();
  }
}

void Simulator::refill_agenda() {
  // Precondition: agenda empty, at least one armed timer.
  while (agenda_.empty()) {
    if (ring_count_ == 0) {
      // Everything pending lives beyond the ring: jump the epoch straight
      // to the earliest overflow day instead of spinning the calendar.
      assert(overflow_head_ != kNil);
      // Pass 1: drop dead entries from the chain, find the earliest day.
      std::uint64_t min_b = ~std::uint64_t{0};
      std::uint32_t n = overflow_head_;
      std::uint32_t prev = kNil;
      while (n != kNil) {
        const std::uint32_t next = nodes_[n].next;
        if (entry_live(nodes_[n].e)) {
          min_b = std::min(min_b, bucket_of(nodes_[n].e.t_ns));
          prev = n;
        } else {
          if (prev == kNil) {
            overflow_head_ = next;
          } else {
            nodes_[prev].next = next;
          }
          free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
        }
        n = next;
      }
      assert(overflow_head_ != kNil);
      epoch_bucket_ = min_b;
      // Pass 2: detach the chain and re-file every node against the new
      // epoch (place_node may push far-out nodes back onto overflow_head_).
      n = overflow_head_;
      overflow_head_ = kNil;
      while (n != kNil) {
        const std::uint32_t next = nodes_[n].next;
        place_node(n);
        n = next;
      }
      continue;
    }
    // Skip this year's empty days in one move. Stepping onto an empty day
    // that is not a year boundary does nothing, so landing on the next
    // occupied day — or, when none is left this year, on the year's last
    // day so the step below crosses the boundary — drains the same buckets
    // in the same order, and sweeps the overflow at the same crossings, as
    // a one-day-at-a-time walk.
    const std::uint64_t slot = epoch_bucket_ & kBucketMask;
    const std::uint64_t next = next_occupied(slot + 1);
    epoch_bucket_ += (next == kBuckets ? kBucketMask : next - 1) - slot;
    ++epoch_bucket_;
    if ((epoch_bucket_ & kBucketMask) == 0 && overflow_head_ != kNil) {
      sweep_overflow();  // crossed into a new year: pull overflow forward
    }
    const std::uint64_t day = epoch_bucket_ & kBucketMask;
    ++calendar_probes_;
    std::uint32_t n = bucket_head_[day];
    if (n == kNil) continue;
    bucket_head_[day] = kNil;
    occupied_[day >> 6] &= ~(std::uint64_t{1} << (day & 63));
    while (n != kNil) {
      const std::uint32_t next = nodes_[n].next;
      --ring_count_;
      if (entry_live(nodes_[n].e)) {
        agenda_.push_back(nodes_[n].e);  // vmig-lint: h2-ok -- retained
                                         // capacity
      }
      free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
      n = next;
    }
    std::sort(agenda_.begin(), agenda_.end(), AgendaCmp{});
  }
}

std::uint64_t Simulator::next_occupied(std::uint64_t from) {
  std::uint64_t wi = from >> 6;
  if (wi >= kOccupancyWords) return kBuckets;
  std::uint64_t w = occupied_[wi] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    ++calendar_probes_;
    if (w != 0) {
      return wi * 64 + static_cast<std::uint64_t>(std::countr_zero(w));
    }
    if (++wi == kOccupancyWords) return kBuckets;
    w = occupied_[wi];
  }
}

void Simulator::sweep_overflow() {
  std::uint32_t n = overflow_head_;
  overflow_head_ = kNil;
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
    if (entry_live(nodes_[n].e)) {
      place_node(n);  // far entries re-chain onto overflow_head_
    } else {
      free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
    }
    n = next;
  }
}

bool Simulator::step() {
  return step_until(std::numeric_limits<std::int64_t>::max());
}

bool Simulator::step_until(std::int64_t limit_ns) {
  rethrow_pending();
  // Finding the event (agenda refill, overflow sweeps) is dispatch work too,
  // so the scope opens before the peek. The handler runs every coroutine it
  // resumes to its next suspension, so nested probe scopes (bitmap scan,
  // pull path, ...) land inside this one; dispatch overhead is the scope's
  // *exclusive* time.
  obs::ProfScope prof{obs::ProfCategory::kSimDispatch};
  const Entry* pe = peek_live();
  if (pe == nullptr || pe->t_ns > limit_ns) return false;
  const Entry e = *pe;
  agenda_.pop_back();
  TimerSlot& s = slots_[e.slot];
  auto fn = std::move(s.fn);
  s.fn = nullptr;
  s.armed = false;
  release_slot(e.slot);
  --live_count_;
  now_ = TimePoint::from_ns(e.t_ns);
  ++events_processed_;
  if (debug_trace_) {
    const TimerId id = (static_cast<TimerId>(e.slot) << 32) | e.gen;
    std::fprintf(stderr, "sim: fire %llu at %.6f\n",
                 static_cast<unsigned long long>(id), now_.to_seconds());
  }
  obs::prof_count(obs::ProfCategory::kSimDispatch);
  fn();
  rethrow_pending();
  return true;
}
// vmig-lint: hot-end

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  reap_finished_roots();
  return n;
}

std::size_t Simulator::run_until(TimePoint t) {
  std::size_t n = 0;
  while (step_until(t.ns())) ++n;
  if (now_ < t) now_ = t;
  reap_finished_roots();
  return n;
}

std::size_t Simulator::run_for(Duration d) { return run_until(now_ + d); }

Task<void> Simulator::root_runner(Task<void> inner,
                                  std::shared_ptr<detail::JoinState> st) {
  try {
    co_await std::move(inner);
  } catch (...) {
    st->error = std::current_exception();
    if (st->sim && !st->sim->pending_error_) {
      st->sim->pending_error_ = st->error;
    }
  }
  st->done = true;
  const auto first = st->joiner0;
  st->joiner0 = {};
  auto extra = std::move(st->extra_joiners);
  st->extra_joiners.clear();
  if (first) first.resume();
  for (auto h : extra) h.resume();
}

SpawnHandle Simulator::spawn(Task<void> task, std::string name) {
  // NOTE: no reaping here. spawn() can be called from inside a running
  // coroutine whose root entry is in roots_ with done already set (a joiner
  // resumed inline by root_runner); destroying that frame mid-execution
  // would be UB. Reaping happens only from run()/run_until(), where no
  // coroutine is on the stack.
  //
  // Setup allocations (join state, root bookkeeping) are deliberate and
  // attributed to kOther so the dispatch loop's alloc counter stays a
  // steady-state signal.
  obs::ProfScope prof{obs::ProfCategory::kOther};
  auto st = std::make_shared<detail::JoinState>();
  st->sim = this;
  st->name = std::move(name);
  Task<void> wrapper = root_runner(std::move(task), st);
  roots_.push_back(RootTask{std::move(wrapper), st});
  roots_.back().wrapper.start();
  return SpawnHandle{st};
}

std::size_t Simulator::live_root_count() const {
  std::size_t n = 0;
  for (const auto& r : roots_) {
    if (!r.state->done) ++n;
  }
  return n;
}

void Simulator::reap_finished_roots() {
  std::erase_if(roots_, [](const RootTask& r) { return r.state->done; });
}

void Simulator::rethrow_pending() {
  if (pending_error_) {
    std::exception_ptr e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace vmig::sim

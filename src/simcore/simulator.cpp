#include "simcore/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace vmig::sim {

const std::string& SpawnHandle::name() const {
  static const std::string kEmpty;
  return st_ ? st_->name : kEmpty;
}

DelayAwaiter::~DelayAwaiter() {
  if (scheduled_ && !fired_) sim_.cancel(timer_);
}

void DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  const Duration d = d_ < Duration::zero() ? Duration::zero() : d_;
  const auto arm = [this, h](Duration dd) {
    timer_ = sim_.schedule_after(dd, [this, h] {
      fired_ = true;
      h.resume();  // `this` may be destroyed past this point
    });
  };
  if (shard_ == kInheritShard) {
    arm(d);
  } else {
    Simulator::ShardScope scope{sim_, shard_};
    arm(d);
  }
  scheduled_ = true;
}

Simulator::Simulator() {
  shards_.resize(1);
  shards_[0].bucket_head.assign(kBuckets, kNil);
}

Simulator::~Simulator() {
  tearing_down_ = true;
  // Destroy root frames first: their awaiter destructors may cancel timers,
  // which touches the slot arena, so roots_ must go before the queue state.
  roots_.clear();
}

void Simulator::configure_shards(std::uint32_t n) {
  if (live_count_ != 0) {
    throw std::logic_error{
        "Simulator::configure_shards: events are pending; shard layout can "
        "only change on an empty calendar"};
  }
  n = std::clamp<std::uint32_t>(n, 1, kMaxShards);
  shards_.clear();
  shards_.resize(n);
  for (auto& sh : shards_) {
    sh.bucket_head.assign(kBuckets, kNil);
    // Start each calendar's epoch at the current day so a shard configured
    // mid-run does not spin through every day since the origin.
    sh.epoch_bucket = bucket_of(now_.ns());
  }
  heads_.clear();
  current_shard_ = 0;
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
  const std::uint32_t si =
      current_shard_ < shards_.size() ? current_shard_ : 0;
  TimerSlot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  s.shard = si;
  const TimerId id = (static_cast<TimerId>(slot) << 32) | s.gen;
  if (debug_trace_) {
    std::fprintf(stderr, "sim: schedule %llu at %.6f\n",
                 static_cast<unsigned long long>(id), t.to_seconds());
  }
  const Entry e{t.ns(), next_seq_++, slot, s.gen};
  Shard& sh = shards_[si];
  place(sh, e);
  ++sh.live;
  ++live_count_;
  if (shards_.size() > 1) note_insert(si, e);
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
  // generation when the calendar reaches it. The shard's registered head
  // key may now point at a dead entry; peek_global discards it lazily.
  s.armed = false;
  s.fn = nullptr;
  --shards_[s.shard].live;
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

void Simulator::place(Shard& sh, const Entry& e) {
  const std::uint64_t b = bucket_of(e.t_ns);
  if (b <= sh.epoch_bucket) {
    // Due today (or in the past-clamped present): keep the agenda sorted
    // descending so the shard minimum stays at the back.
    const auto pos =
        std::upper_bound(sh.agenda.begin(), sh.agenda.end(), e, AgendaCmp{});
    sh.agenda.insert(pos, e);  // vmig-lint: h2-ok -- within retained capacity
                               // after warmup; the agenda drains every day
  } else if (b - sh.epoch_bucket < kBuckets) {
    // Chain a pooled node onto the day's bucket: no allocation even for a
    // bucket touched for the first time (the old vector-per-bucket layout
    // cold-started every bucket's capacity).
    push_bucket(sh, alloc_node(e), b);
  } else {
    const std::uint32_t n = alloc_node(e);
    nodes_[n].next = sh.overflow_head;
    sh.overflow_head = n;
  }
}

void Simulator::place_node(Shard& sh, std::uint32_t n) {
  const Entry& e = nodes_[n].e;
  const std::uint64_t b = bucket_of(e.t_ns);
  if (b <= sh.epoch_bucket) {
    const auto pos =
        std::upper_bound(sh.agenda.begin(), sh.agenda.end(), e, AgendaCmp{});
    sh.agenda.insert(pos, e);  // vmig-lint: h2-ok -- retained capacity
    free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
  } else if (b - sh.epoch_bucket < kBuckets) {
    push_bucket(sh, n, b);
  } else {
    nodes_[n].next = sh.overflow_head;
    sh.overflow_head = n;
  }
}

void Simulator::push_bucket(Shard& sh, std::uint32_t n, std::uint64_t b) {
  const std::uint64_t slot = b & kBucketMask;
  nodes_[n].next = sh.bucket_head[slot];
  sh.bucket_head[slot] = n;
  sh.occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++sh.ring_count;
}
// vmig-lint: hot-end

void Simulator::release_slot(std::uint32_t slot) {
  TimerSlot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // gen 0 is reserved so TimerId is never 0
  free_slots_.push_back(slot);
}

// vmig-lint: hot-begin -- timer extract: the event loop's inner machinery;
// must not allocate per event once bucket/agenda capacity is warm
const Simulator::Entry* Simulator::peek_live(Shard& sh) {
  for (;;) {
    while (!sh.agenda.empty()) {
      if (entry_live(sh.agenda.back())) return &sh.agenda.back();
      sh.agenda.pop_back();  // stale (cancelled) entry: lazy deletion
    }
    if (sh.live == 0) return nullptr;
    refill_agenda(sh);
  }
}

void Simulator::refill_agenda(Shard& sh) {
  // Precondition: agenda empty, at least one armed timer in this shard.
  while (sh.agenda.empty()) {
    if (sh.ring_count == 0) {
      // Everything pending lives beyond the ring: jump the epoch straight
      // to the earliest overflow day instead of spinning the calendar.
      assert(sh.overflow_head != kNil);
      // Pass 1: drop dead entries from the chain, find the earliest day.
      std::uint64_t min_b = ~std::uint64_t{0};
      std::uint32_t n = sh.overflow_head;
      std::uint32_t prev = kNil;
      while (n != kNil) {
        const std::uint32_t next = nodes_[n].next;
        if (entry_live(nodes_[n].e)) {
          min_b = std::min(min_b, bucket_of(nodes_[n].e.t_ns));
          prev = n;
        } else {
          if (prev == kNil) {
            sh.overflow_head = next;
          } else {
            nodes_[prev].next = next;
          }
          free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
        }
        n = next;
      }
      assert(sh.overflow_head != kNil);
      sh.epoch_bucket = min_b;
      // Pass 2: detach the chain and re-file every node against the new
      // epoch (place_node may push far-out nodes back onto overflow_head).
      n = sh.overflow_head;
      sh.overflow_head = kNil;
      while (n != kNil) {
        const std::uint32_t next = nodes_[n].next;
        place_node(sh, n);
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
    const std::uint64_t slot = sh.epoch_bucket & kBucketMask;
    const std::uint64_t next = next_occupied(sh, slot + 1);
    sh.epoch_bucket += (next == kBuckets ? kBucketMask : next - 1) - slot;
    ++sh.epoch_bucket;
    if ((sh.epoch_bucket & kBucketMask) == 0 && sh.overflow_head != kNil) {
      sweep_overflow(sh);  // crossed into a new year: pull overflow forward
    }
    const std::uint64_t day = sh.epoch_bucket & kBucketMask;
    ++calendar_probes_;
    std::uint32_t n = sh.bucket_head[day];
    if (n == kNil) continue;
    sh.bucket_head[day] = kNil;
    sh.occupied[day >> 6] &= ~(std::uint64_t{1} << (day & 63));
    while (n != kNil) {
      const std::uint32_t next = nodes_[n].next;
      --sh.ring_count;
      if (entry_live(nodes_[n].e)) {
        sh.agenda.push_back(nodes_[n].e);  // vmig-lint: h2-ok -- retained
                                           // capacity
      }
      free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
      n = next;
    }
    std::sort(sh.agenda.begin(), sh.agenda.end(), AgendaCmp{});
  }
}

std::uint64_t Simulator::next_occupied(const Shard& sh, std::uint64_t from) {
  std::uint64_t wi = from >> 6;
  if (wi >= kOccupancyWords) return kBuckets;
  std::uint64_t w = sh.occupied[wi] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    ++calendar_probes_;
    if (w != 0) {
      return wi * 64 + static_cast<std::uint64_t>(std::countr_zero(w));
    }
    if (++wi == kOccupancyWords) return kBuckets;
    w = sh.occupied[wi];
  }
}

void Simulator::sweep_overflow(Shard& sh) {
  std::uint32_t n = sh.overflow_head;
  sh.overflow_head = kNil;
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
    if (entry_live(nodes_[n].e)) {
      place_node(sh, n);  // far entries re-chain onto overflow_head
    } else {
      free_nodes_.push_back(n);  // vmig-lint: h2-ok -- retained capacity
    }
    n = next;
  }
}

void Simulator::register_key(std::uint32_t si, std::int64_t t_ns,
                             std::uint64_t seq) {
  Shard& sh = shards_[si];
  sh.key_epoch = ++key_epoch_counter_;
  sh.key_t = t_ns;
  sh.key_seq = seq;
  sh.key_registered = true;
  // vmig-lint: h2-ok -- heads_ retains capacity; bounded by live shard count
  heads_.push_back(HeapKey{t_ns, seq, sh.key_epoch, si});
  std::push_heap(heads_.begin(), heads_.end(), HeapCmp{});
}

void Simulator::note_insert(std::uint32_t si, const Entry& e) {
  // Keep the registered key a lower bound on the shard's true head: only a
  // new entry that undercuts the current bound needs a (re-)registration.
  // If the shard was empty its new sole entry IS the head; if it was
  // nonempty the old bound stays <= min(old head, e) whenever e >= bound.
  const Shard& sh = shards_[si];
  if (!sh.key_registered || e.t_ns < sh.key_t ||
      (e.t_ns == sh.key_t && e.seq < sh.key_seq)) {
    register_key(si, e.t_ns, e.seq);
  }
}

const Simulator::Entry* Simulator::peek_global(std::uint32_t* si) {
  if (shards_.size() == 1) {
    *si = 0;
    return peek_live(shards_[0]);
  }
  for (;;) {
    if (live_count_ == 0) return nullptr;
    assert(!heads_.empty());
    const HeapKey k = heads_.front();
    Shard& sh = shards_[k.shard];
    if (k.epoch != sh.key_epoch) {
      // Superseded by a later registration for the same shard: discard.
      std::pop_heap(heads_.begin(), heads_.end(), HeapCmp{});
      heads_.pop_back();
      continue;
    }
    const Entry* pe = peek_live(sh);
    if (pe != nullptr && pe->t_ns == k.t_ns && pe->seq == k.seq) {
      // The bound is exact: because every other shard's registered key is a
      // lower bound on its head and this key won the heap, this entry is
      // the global (t, seq) minimum.
      *si = k.shard;
      return pe;
    }
    // Stale bound (its entry fired or was cancelled). Retire it and
    // re-register the shard's true head, if the shard still has one.
    std::pop_heap(heads_.begin(), heads_.end(), HeapCmp{});
    heads_.pop_back();
    sh.key_registered = false;
    if (pe != nullptr) register_key(k.shard, pe->t_ns, pe->seq);
  }
}

bool Simulator::step() {
  return step_until(std::numeric_limits<std::int64_t>::max());
}

bool Simulator::step_until(std::int64_t limit_ns) {
  rethrow_pending();
  // Finding the event (agenda refill, overflow sweeps, head-key upkeep) is
  // dispatch work too, so the scope opens before the peek. The handler runs
  // every coroutine it resumes to its next suspension, so nested probe
  // scopes (bitmap scan, pull path, ...) land inside this one; dispatch
  // overhead is the scope's *exclusive* time.
  obs::ProfScope prof{obs::ProfCategory::kSimDispatch};
  std::uint32_t si = 0;
  const Entry* pe = peek_global(&si);
  if (pe == nullptr || pe->t_ns > limit_ns) return false;
  Shard& sh = shards_[si];
  const Entry e = *pe;
  sh.agenda.pop_back();
  TimerSlot& s = slots_[e.slot];
  auto fn = std::move(s.fn);
  s.fn = nullptr;
  s.armed = false;
  release_slot(e.slot);
  --sh.live;
  --live_count_;
  if (shards_.size() > 1) {
    // peek_global left the fired entry's key on top; it is spent now.
    std::pop_heap(heads_.begin(), heads_.end(), HeapCmp{});
    heads_.pop_back();
    sh.key_registered = false;
    // Re-register this shard's true head BEFORE the handler runs. The
    // handler may schedule new entries into this shard, and note_insert's
    // lower-bound reasoning is only sound while a registered key exists for
    // every shard that has one: with no key, the first insert would become
    // the bound even when an older entry is still queued here, and the heap
    // would let another shard overtake it.
    if (sh.live > 0) {
      const Entry* nh = peek_live(sh);
      if (nh != nullptr) register_key(si, nh->t_ns, nh->seq);
    }
  }
  now_ = TimePoint::from_ns(e.t_ns);
  ++events_processed_;
  if (debug_trace_) {
    const TimerId id = (static_cast<TimerId>(e.slot) << 32) | e.gen;
    std::fprintf(stderr, "sim: fire %llu at %.6f\n",
                 static_cast<unsigned long long>(id), now_.to_seconds());
  }
  current_shard_ = si;
  obs::prof_count(obs::ProfCategory::kSimDispatch);
  fn();
  current_shard_ = 0;
  if (shards_.size() > 1 && si < shards_.size()) {
    // Restore the head-key invariant for the fired shard (the handler may
    // already have re-registered it by scheduling an earlier entry).
    Shard& fired = shards_[si];
    if (fired.live > 0 && !fired.key_registered) {
      const Entry* nh = peek_live(fired);
      if (nh != nullptr) register_key(si, nh->t_ns, nh->seq);
    }
  }
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

SpawnHandle Simulator::spawn_on(std::uint32_t shard, Task<void> task,
                                std::string name) {
  // start() runs the task synchronously to its first suspension, so the
  // scope covers every timer the task arms before it first sleeps.
  ShardScope scope{*this, shard};
  return spawn(std::move(task), std::move(name));
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

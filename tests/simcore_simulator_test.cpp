#include "simcore/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"

namespace vmig::sim {
namespace {

// vmig-lint: c3-begin -- these tests capture stack locals by reference in
// scheduler callbacks on purpose: every callback runs inside sim.run(),
// which is called in the same frame, so nothing outlives its referents
using namespace vmig::sim::literals;

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_FALSE(sim.has_pending());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30_ms, [&] { order.push_back(3); });
  sim.schedule_after(10_ms, [&] { order.push_back(1); });
  sim.schedule_after(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 30_ms);
}

TEST(SimulatorTest, DebugTraceIsExplicitAndOffByDefault) {
  // The scheduler narration used to hang off getenv("VMIG_SIM_TRACE");
  // it is now an explicit, plumbable switch so behavior is a function of
  // program arguments alone.
  Simulator sim;
  EXPECT_FALSE(sim.debug_trace());

  testing::internal::CaptureStderr();
  sim.schedule_after(1_ms, [] {});
  sim.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  sim.set_debug_trace(true);
  EXPECT_TRUE(sim.debug_trace());
  testing::internal::CaptureStderr();
  const auto id = sim.schedule_after(1_ms, [] {});
  sim.cancel(id);
  sim.schedule_after(2_ms, [] {});
  sim.run();
  const std::string narration = testing::internal::GetCapturedStderr();
  EXPECT_NE(narration.find("sim: schedule"), std::string::npos);
  EXPECT_NE(narration.find("sim: cancel"), std::string::npos);
  EXPECT_NE(narration.find("sim: fire"), std::string::npos);

  sim.set_debug_trace(false);
  testing::internal::CaptureStderr();
  sim.schedule_after(1_ms, [] {});
  sim.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(SimulatorTest, SameTimeFiresInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen{};
  sim.schedule_after(42_ms, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + 42_ms);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_after(10_ms, [&] {
    times.push_back(sim.now().to_seconds());
    sim.schedule_after(10_ms, [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 0.010);
  EXPECT_DOUBLE_EQ(times[1], 0.020);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.schedule_after(10_ms, [] {});
  sim.run();
  bool fired = false;
  sim.schedule_at(TimePoint::origin(), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 10_ms);  // time never goes back
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_after(10_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_after(10_ms, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_after(10_ms, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, StepProcessesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(1_ms, [&] { ++count; });
  sim.schedule_after(2_ms, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RunUntilStopsAtLimit) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_after(10_ms, [&] { fired.push_back(1); });
  sim.schedule_after(20_ms, [&] { fired.push_back(2); });
  sim.schedule_after(30_ms, [&] { fired.push_back(3); });
  sim.run_until(TimePoint::origin() + 20_ms);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 20_ms);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithNoEvents) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + 5_s);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_s);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.run_for(1_s);
  sim.run_for(2_s);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 3_s);
}

TEST(SimulatorTest, EventsProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(Duration::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, PendingCountExcludesCancelled) {
  Simulator sim;
  sim.schedule_after(1_ms, [] {});
  const auto id = sim.schedule_after(2_ms, [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    // Deliberately scrambled insertion order.
    const auto d = Duration::micros((i * 7919) % 10007);
    sim.schedule_after(d, [&seen, &sim] { seen.push_back(sim.now().ns()); });
  }
  sim.run();
  ASSERT_EQ(seen.size(), 10000u);
  for (size_t i = 1; i < seen.size(); ++i) ASSERT_LE(seen[i - 1], seen[i]);
}

// -- calendar-queue edge cases --
// The pending set is a ring of 8192 buckets x 8.192 us (one "year" = ~67 ms);
// events beyond a year sit in an overflow list swept once per revolution.
// These tests pin the behaviors that geometry could plausibly break.

TEST(SimulatorCalendarTest, FarFutureTimersCrossTheYear) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(5_s, [&] { order.push_back(4); });     // many years out
  sim.schedule_after(1_ms, [&] { order.push_back(1); });    // inside the ring
  sim.schedule_after(100_ms, [&] { order.push_back(2); });  // next revolution
  sim.schedule_after(200_ms, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_s);
}

TEST(SimulatorCalendarTest, YearBoundaryOrdering) {
  // One ring revolution is 8192 buckets * 8192 ns = 2^26 ns.
  constexpr std::int64_t kYearNs = std::int64_t{1} << 26;
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::nanos(kYearNs + 1), [&] { order.push_back(3); });
  sim.schedule_after(Duration::nanos(kYearNs), [&] { order.push_back(2); });
  sim.schedule_after(Duration::nanos(kYearNs - 1), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorCalendarTest, SameBucketDifferentTimes) {
  // Distinct nanosecond times mapping to the same 8.192 us bucket must still
  // fire in time order, not insertion order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::nanos(5000), [&] { order.push_back(2); });
  sim.schedule_after(Duration::nanos(100), [&] { order.push_back(1); });
  sim.schedule_after(Duration::nanos(8000), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorCalendarTest, SameFarTimeFiresInInsertionOrder) {
  // (time, seq) ordering must survive the overflow list and its sweeps.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(1_s, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorCalendarTest, CancelOverflowTimer) {
  Simulator sim;
  bool near_fired = false, far_fired = false;
  sim.schedule_after(1_ms, [&] { near_fired = true; });
  const auto id = sim.schedule_after(10_s, [&] { far_fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(far_fired);
  // The cancelled overflow entry must not hold the clock hostage.
  EXPECT_EQ(sim.now(), TimePoint::origin() + 1_ms);
}

TEST(SimulatorCalendarTest, CancelStorm) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<Simulator::TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    // Spread across the ring and into overflow.
    const auto d = Duration::micros(static_cast<std::int64_t>(i) * 200);
    ids.push_back(sim.schedule_after(d, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 2) {
    EXPECT_TRUE(sim.cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(sim.pending_count(), 500u);
  sim.run();
  ASSERT_EQ(fired.size(), 500u);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
  }
  EXPECT_EQ(sim.events_processed(), 500u);
}

TEST(SimulatorCalendarTest, InvalidAndStaleIdsAreSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));  // 0 is the "no timer" sentinel
  EXPECT_FALSE(sim.cancel(~Simulator::TimerId{0}));  // out-of-range slot
  const auto id = sim.schedule_after(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));  // fired: generation recycled
  // A recycled slot must not be cancellable through the old id.
  const auto id2 = sim.schedule_after(1_ms, [] {});
  EXPECT_NE(id, id2);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_TRUE(sim.cancel(id2));
}

TEST(SimulatorCalendarTest, EpochJumpsAcrossIdleGap) {
  // When the ring is empty the epoch must jump straight to the next event's
  // day rather than stepping through thousands of empty buckets.
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.schedule_after(1_ms, [&] {
    seen.push_back(sim.now().ns());
    // Nested far-future schedule from inside a fire.
    sim.schedule_after(3_s, [&] { seen.push_back(sim.now().ns()); });
  });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1'000'000);
  EXPECT_EQ(seen[1], 3'001'000'000);
}

TEST(SimulatorCalendarTest, RescheduleIntoCurrentBucketWhileFiring) {
  // An event scheduled at the current time from inside a callback runs in
  // the same run(), after the current event (seq order).
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(1_ms, [&] {
    order.push_back(1);
    sim.schedule_after(Duration::zero(), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorCalendarTest, ManyRevolutionsStress) {
  // Chains of timers that repeatedly lap the ring: each hop is ~half a year,
  // so the epoch crosses bucket 0 dozens of times.
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) sim.schedule_after(33_ms, hop);
  };
  sim.schedule_after(33_ms, hop);
  sim.run();
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(3300));
}

/// Calendar probes spent firing a chain of `timers` timers, each arming the
/// next one `spacing` later (one pending event at a time, like a disk
/// serving requests back to back).
std::uint64_t chain_probes(Duration spacing, int timers) {
  Simulator sim;
  int left = timers;
  std::function<void()> hop = [&] {
    if (--left > 0) sim.schedule_after(spacing, hop);
  };
  sim.schedule_after(spacing, hop);
  sim.run();
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(timers));
  return sim.calendar_probes();
}

TEST(SimulatorCalendarTest, ProbesFollowEventsNotIdleTime) {
  // 8 us is about one 8.192 us day; 4 ms is the paper disk's service time,
  // ~488 days. Walking the ring one day at a time costs ~488 probes per
  // event at 4 ms; the occupancy bitmap skips 64 empty days per word.
  constexpr int kTimers = 10000;
  const std::uint64_t dense = chain_probes(8_us, kTimers);
  const std::uint64_t sparse = chain_probes(4_ms, kTimers);
  EXPECT_LE(dense, 4u * kTimers);
  EXPECT_LE(sparse, 12u * kTimers);
  EXPECT_LE(sparse, 8 * dense);
}

TEST(SimulatorCalendarTest, PendingCountWithOverflow) {
  Simulator sim;
  sim.schedule_after(1_ms, [] {});
  const auto far = sim.schedule_after(10_s, [] {});
  sim.schedule_after(20_s, [] {});
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.cancel(far);
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_FALSE(sim.has_pending());
}

TEST(SimulatorCalendarTest, CalendarQueuedCountsAgendaAndRingEntries) {
  Simulator sim;
  EXPECT_EQ(sim.calendar_queued(), 0u);
  const auto near = sim.schedule_after(1_ms, [] {});
  sim.schedule_after(2_ms, [] {});
  sim.schedule_after(Duration::zero(), [] {});  // due today: the agenda
  sim.schedule_after(10_s, [] {});              // beyond the year: overflow
  EXPECT_EQ(sim.pending_count(), 4u);
  EXPECT_EQ(sim.calendar_queued(), 3u);
  // Cancellation is lazy: the entry stays queued until the calendar meets it.
  sim.cancel(near);
  EXPECT_EQ(sim.pending_count(), 3u);
  EXPECT_EQ(sim.calendar_queued(), 3u);
  sim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_EQ(sim.pending_count(), 1u);
  // Looking for the next event drew the overflow timer into the agenda.
  EXPECT_EQ(sim.calendar_queued(), 1u);
  sim.run();
  EXPECT_EQ(sim.calendar_queued(), 0u);
}

TEST(DelayAwaiterTest, DestroyedWhilePendingCancelsItsTimer) {
  Simulator sim;
  sim.set_debug_trace(true);
  testing::internal::CaptureStderr();
  {
    DelayAwaiter wait = sim.delay(5_ms);
    wait.await_suspend(std::noop_coroutine());
    EXPECT_EQ(sim.pending_count(), 1u);
  }
  const std::string narration = testing::internal::GetCapturedStderr();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_NE(narration.find("sim: cancel"), std::string::npos);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(DelayAwaiterTest, DestroyedAfterFiringCancelsNothing) {
  Simulator sim;
  sim.set_debug_trace(true);
  testing::internal::CaptureStderr();
  {
    DelayAwaiter wait = sim.delay(5_ms);
    wait.await_suspend(std::noop_coroutine());
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(sim.now(), TimePoint::origin() + 5_ms);
  }
  const std::string narration = testing::internal::GetCapturedStderr();
  EXPECT_NE(narration.find("sim: fire"), std::string::npos);
  EXPECT_EQ(narration.find("sim: cancel"), std::string::npos);
}

// ------------------------------------------------------------ ordering fuzz

/// What one randomized schedule/cancel stream did: the fire order by timer
/// id, plus the reference model — each id's due time and whether a cancel
/// reached it while still armed. Ids are handed out in scheduling order, so
/// id order is seq order.
struct Stream {
  std::vector<std::uint64_t> fired;
  std::vector<std::int64_t> due_ns;
  std::vector<bool> cancelled;
  bool fired_on_time = true;
};

/// Replay one randomized schedule/cancel stream: seed events, each of whose
/// handlers reschedules a few followers, mixing same-time ties, zero
/// delays, millisecond gaps (the paper disk's service time and its
/// multiples), overflow entries a few ring revolutions out, multi-year idle
/// gaps, and lazy cancellations.
Stream run_stream(std::uint64_t seed) {
  Simulator sim;
  Rng rng{seed};
  Stream out;
  std::vector<std::pair<Simulator::TimerId, std::uint64_t>> cancellable;

  struct Ctx {
    Simulator& sim;
    Rng& rng;
    Stream& out;
    std::vector<std::pair<Simulator::TimerId, std::uint64_t>>& cancellable;
    int budget = 400;
  };
  Ctx ctx{sim, rng, out, cancellable};

  // std::function recursion through the scheduler.
  struct Gen {
    static Duration pick_delay(Rng& rng) {
      const std::uint64_t pick = rng.uniform_u64(100);
      if (pick < 15) return Duration::zero();
      if (pick < 45) return Duration::micros(rng.uniform_u64(50));
      if (pick < 65) return Duration::millis(rng.uniform_u64(20));
      if (pick < 80) return Duration::millis(4 * (1 + rng.uniform_u64(4)));
      if (pick < 93) return Duration::millis(100 + rng.uniform_u64(200));
      return Duration::seconds(1 + rng.uniform_u64(4)) +
             Duration::micros(rng.uniform_u64(1000));  // many years out
    }

    static void plant(Ctx& c, int fanout) {
      for (int i = 0; i < fanout; ++i) {
        if (c.budget <= 0) return;
        --c.budget;
        const std::uint64_t id = c.out.due_ns.size();
        const Duration d = pick_delay(c.rng);
        c.out.due_ns.push_back((c.sim.now() + d).ns());
        c.out.cancelled.push_back(false);
        const auto tid = c.sim.schedule_after(d, [&c, id] {
          c.out.fired.push_back(id);
          if (c.sim.now().ns() != c.out.due_ns[id]) c.out.fired_on_time = false;
          if (c.rng.bernoulli(0.6)) {
            plant(c, 1 + static_cast<int>(c.rng.uniform_u64(3)));
          }
          // Lazy cancellation: kill a random armed timer now and then.
          if (!c.cancellable.empty() && c.rng.bernoulli(0.3)) {
            const std::size_t k = c.rng.uniform_u64(c.cancellable.size());
            if (c.sim.cancel(c.cancellable[k].first)) {
              c.out.cancelled[c.cancellable[k].second] = true;
            }
            c.cancellable.erase(c.cancellable.begin() +
                                static_cast<std::ptrdiff_t>(k));
          }
        });
        if (c.rng.bernoulli(0.2)) c.cancellable.emplace_back(tid, id);
      }
    }
  };
  Gen::plant(ctx, 24);
  sim.run();
  return out;
}

class CalendarOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// The reference order: every timer not cancelled fires exactly once, at
/// its due time, in ascending (due time, seq) order.
TEST_P(CalendarOrderFuzz, FiresInReferenceOrder) {
  const Stream s = run_stream(GetParam());
  ASSERT_FALSE(s.fired.empty());
  EXPECT_TRUE(s.fired_on_time);
  EXPECT_TRUE(std::find(s.cancelled.begin(), s.cancelled.end(), true) !=
              s.cancelled.end());
  std::vector<std::uint64_t> want;
  for (std::uint64_t id = 0; id < s.due_ns.size(); ++id) {
    if (!s.cancelled[id]) want.push_back(id);
  }
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return s.due_ns[a] < s.due_ns[b];
                   });
  EXPECT_EQ(s.fired, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarOrderFuzz,
                         ::testing::Values(3, 17, 29, 101, 1234, 99999));

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto trace = [] {
    Simulator sim;
    std::vector<std::int64_t> t;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_after(Duration::micros((i * 37) % 101),
                         [&t, &sim] { t.push_back(sim.now().ns()); });
    }
    sim.run();
    return t;
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
}  // namespace vmig::sim

// vmig-lint: c3-end

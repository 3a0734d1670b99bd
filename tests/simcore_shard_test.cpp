// Sharded calendar-queue scheduling: the exact (time, seq) fire-order
// contract must hold for ANY shard assignment. Seed-swept fuzz runs file
// randomized schedule/cancel streams into random shards (including
// cross-shard delay_on handoffs, the link-boundary pattern) and require the
// fired sequence to be identical to a single-shard run of the same stream,
// which itself must match a reference (due time, seq) model of the stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace vmig::sim {
namespace {

using namespace vmig::sim::literals;

TEST(ShardConfigTest, ConfigureClampsAndResets) {
  Simulator sim;
  EXPECT_EQ(sim.shard_count(), 1u);
  sim.configure_shards(8);
  EXPECT_EQ(sim.shard_count(), 8u);
  sim.configure_shards(0);  // clamped up
  EXPECT_EQ(sim.shard_count(), 1u);
  sim.configure_shards(Simulator::kMaxShards + 100);  // clamped down
  EXPECT_EQ(sim.shard_count(), Simulator::kMaxShards);
}

TEST(ShardConfigTest, ConfigureThrowsWithPendingEvents) {
  Simulator sim;
  sim.schedule_after(1_ms, [] {});
  EXPECT_THROW(sim.configure_shards(4), std::logic_error);
  sim.run();
  sim.configure_shards(4);  // legal once drained
  EXPECT_EQ(sim.shard_count(), 4u);
}

TEST(ShardScopeTest, TimersFileIntoScopedShardAndInherit) {
  Simulator sim;
  sim.configure_shards(4);
  std::vector<int> fired;
  {
    Simulator::ShardScope scope{sim, 2};
    EXPECT_EQ(sim.current_shard(), 2u);
    // vmig-lint: c3-ok -- sim and fired outlive sim.run() in this test frame
    sim.schedule_after(1_ms, [&] {
      fired.push_back(1);
      // Inherited: this handler runs in shard 2, so its children file there.
      EXPECT_EQ(sim.current_shard(), 2u);
      // vmig-lint: c3-ok -- same lifetime argument as the outer lambda
      sim.schedule_after(1_ms, [&] { fired.push_back(2); });
    });
  }
  EXPECT_EQ(sim.current_shard(), 0u);  // scope restored
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.current_shard(), 0u);  // reset between events
}

TEST(ShardScopeTest, OutOfRangeShardClampsToDefault) {
  Simulator sim;
  sim.configure_shards(2);
  Simulator::ShardScope scope{sim, 99};
  EXPECT_EQ(sim.current_shard(), 0u);
}

TEST(ShardHandoffTest, DelayOnResumesInTargetShard) {
  Simulator sim;
  sim.configure_shards(4);
  std::uint32_t resumed_in = 0xffffffffu;
  sim.spawn_on(1, [](Simulator& s, std::uint32_t& out) -> Task<void> {
    // The wake-up timer is filed into shard 3 — the conservative handoff a
    // Link performs at the receiver boundary.
    co_await s.delay_on(3, 2_ms);
    out = s.current_shard();
  }(sim, resumed_in));
  sim.run();
  EXPECT_EQ(resumed_in, 3u);
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

/// Replay one randomized schedule/cancel stream. Ops are generated
/// identically for every shard count (the RNG stream never depends on the
/// topology), so the fired sequences are comparable element-for-element.
Stream run_stream(std::uint64_t seed, std::uint32_t shard_count) {
  Simulator sim;
  if (shard_count > 1) sim.configure_shards(shard_count);
  Rng rng{seed};
  Stream out;
  std::vector<std::pair<Simulator::TimerId, std::uint64_t>> cancellable;

  // Seed events across shards; each handler reschedules a few followers
  // into random shards, mixing same-time ties, zero delays, millisecond
  // gaps (the paper disk's service time and its multiples), overflow
  // entries a few ring revolutions out, multi-year idle gaps, and lazy
  // cancellations.
  struct Ctx {
    Simulator& sim;
    Rng& rng;
    Stream& out;
    std::vector<std::pair<Simulator::TimerId, std::uint64_t>>& cancellable;
    std::uint32_t shards;
    int budget = 400;
  };
  Ctx ctx{sim, rng, out, cancellable, shard_count};

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
        const std::uint32_t target =
            static_cast<std::uint32_t>(c.rng.uniform_u64(c.shards));
        const Duration d = pick_delay(c.rng);
        c.out.due_ns.push_back((c.sim.now() + d).ns());
        c.out.cancelled.push_back(false);
        Simulator::ShardScope scope{c.sim, target};
        // vmig-lint: c3-ok -- Ctx outlives sim.run(); see run_stream's frame
        const auto tid = c.sim.schedule_after(d, [&c, id] {
          c.out.fired.push_back(id);
          if (c.sim.now().ns() != c.out.due_ns[id]) c.out.fired_on_time = false;
          if (c.rng.bernoulli(0.6)) plant(c, 1 + static_cast<int>(c.rng.uniform_u64(3)));
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

/// The reference order: every timer not cancelled fires exactly once, at
/// its due time, in ascending (due time, seq) order.
void expect_reference_order(const Stream& s) {
  EXPECT_TRUE(s.fired_on_time);
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

class ShardOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardOrderFuzz, FireOrderIdenticalAcrossShardCounts) {
  const std::uint64_t seed = GetParam();
  const Stream baseline = run_stream(seed, 1);
  ASSERT_FALSE(baseline.fired.empty());
  expect_reference_order(baseline);
  for (const std::uint32_t shards : {2u, 5u, 16u, 64u}) {
    EXPECT_EQ(run_stream(seed, shards).fired, baseline.fired)
        << "shards=" << shards;
  }
}

/// Coroutine ping-pong across a shard boundary: two "hosts" exchanging
/// messages via delay_on into each other's shard, racing a same-shard
/// ticker. Exercises the head-key re-registration path when the head of a
/// shard keeps changing from another shard's dispatch context.
std::vector<std::uint64_t> run_pingpong(std::uint64_t seed,
                                        std::uint32_t shard_count) {
  Simulator sim;
  if (shard_count > 1) sim.configure_shards(shard_count);
  Rng rng{seed};
  std::vector<std::uint64_t> log;

  const std::uint32_t sa = 0;
  const std::uint32_t sb = shard_count > 1 ? 1 : 0;
  sim.spawn_on(sa, [](Simulator& s, Rng& r, std::vector<std::uint64_t>& log,
                      std::uint32_t peer) -> Task<void> {
    for (int i = 0; i < 64; ++i) {
      log.push_back(1000 + static_cast<std::uint64_t>(i));
      co_await s.delay_on(peer, Duration::micros(30 + r.uniform_u64(40)));
    }
  }(sim, rng, log, sb));
  sim.spawn_on(sb, [](Simulator& s, Rng& r, std::vector<std::uint64_t>& log,
                      std::uint32_t peer) -> Task<void> {
    for (int i = 0; i < 64; ++i) {
      log.push_back(2000 + static_cast<std::uint64_t>(i));
      co_await s.delay_on(peer, Duration::micros(25 + r.uniform_u64(40)));
    }
  }(sim, rng, log, sa));
  // Same-shard ticker contending with the handoffs at coinciding times.
  sim.spawn_on(sa, [](Simulator& s, std::vector<std::uint64_t>& log) -> Task<void> {
    for (int i = 0; i < 128; ++i) {
      log.push_back(3000 + static_cast<std::uint64_t>(i));
      co_await s.delay(Duration::micros(35));
    }
  }(sim, log));
  sim.run();
  return log;
}

TEST_P(ShardOrderFuzz, LinkHandoffPingPongIdenticalAcrossShardCounts) {
  const std::uint64_t seed = GetParam();
  const auto baseline = run_pingpong(seed, 1);
  for (const std::uint32_t shards : {2u, 4u, 32u}) {
    EXPECT_EQ(run_pingpong(seed, shards), baseline) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardOrderFuzz,
                         ::testing::Values(3, 17, 29, 101, 1234, 99999));

}  // namespace
}  // namespace vmig::sim

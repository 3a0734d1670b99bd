// Direct protocol-level tests of the post-copy engine: each case mirrors a
// line of the paper's §IV-A-3 pseudocode (destination intercept rules and
// the received-block algorithm).

#include <gtest/gtest.h>

#include <memory>

#include "core/post_copy.hpp"
#include "simcore/rng.hpp"

namespace vmig::core {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using storage::BlockRange;
using storage::Geometry;
using namespace vmig::sim::literals;

storage::DiskModelParams fast_disk() {
  storage::DiskModelParams p;
  p.seq_read_mbps = 1000.0;
  p.seq_write_mbps = 1000.0;
  p.seek = Duration::zero();
  p.request_overhead = Duration::zero();
  return p;
}

/// A destination-side harness: disk, reverse stream (pull requests land in
/// our hands), and a PostCopyDestination with a chosen dirty set.
struct DestRig {
  DestRig(Simulator& sim, std::uint64_t blocks,
          std::initializer_list<storage::BlockId> dirty, bool pull = true)
      : disk{sim, Geometry::from_blocks(blocks), fast_disk()},
        source{sim, Geometry::from_blocks(blocks)},
        rev_link{sim},
        rev{sim, rev_link} {
    DirtyBitmap bm{BitmapKind::kFlat, blocks};
    for (const auto b : dirty) bm.set(b);
    engine = std::make_unique<PostCopyDestination>(sim, disk, std::move(bm),
                                                   /*migrated=*/7, rev, pull);
  }

  /// A one-block message as the source sends it, carrying token `tok`.
  DiskBlocksMsg make_block(storage::BlockId b, bool pulled,
                           storage::ContentToken tok = 0xCAFE) {
    source.poke_token(b, tok);
    return DiskBlocksMsg::from_disk(source, BlockRange{b, 1}, pulled);
  }

  storage::VirtualDisk disk;
  storage::VirtualDisk source;  ///< where make_block's messages come from
  net::Link rev_link;
  MigStream rev;
  std::unique_ptr<PostCopyDestination> engine;
};

TEST(PostCopyDestinationTest, OtherDomainsPassThrough) {
  Simulator sim;
  DestRig rig{sim, 64, {5}};
  bool done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    // Line 3: R.VM != migrated VM — submit directly, even to a dirty block.
    co_await rig.engine->on_request(/*domain=*/2, storage::IoOp::kRead,
                                    BlockRange{5, 1});
    done = true;
  }(rig, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.engine->stats().pull_requests, 0u);
  EXPECT_TRUE(rig.engine->transferred().test(5));  // untouched
}

TEST(PostCopyDestinationTest, WriteClearsBitWithoutPulling) {
  Simulator sim;
  DestRig rig{sim, 64, {5, 6}};
  bool done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    // Lines 5-10: a write to a dirty block overwrites the whole block.
    co_await rig.engine->on_request(7, storage::IoOp::kWrite, BlockRange{5, 1});
    done = true;
  }(rig, done));
  sim.run();
  EXPECT_TRUE(done);  // write proceeded immediately
  EXPECT_FALSE(rig.engine->transferred().test(5));
  EXPECT_TRUE(rig.engine->transferred().test(6));
  EXPECT_EQ(rig.engine->stats().pull_requests, 0u);
  EXPECT_FALSE(rig.engine->complete());
}

TEST(PostCopyDestinationTest, ReadOfCleanBlockSubmitsDirectly) {
  Simulator sim;
  DestRig rig{sim, 64, {5}};
  bool done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    // Lines 11-12: clean block — no pull, no wait.
    co_await rig.engine->on_request(7, storage::IoOp::kRead, BlockRange{10, 2});
    done = true;
  }(rig, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.engine->stats().pull_requests, 0u);
  EXPECT_EQ(rig.engine->reads_blocked(), 0u);
}

TEST(PostCopyDestinationTest, ReadOfDirtyBlockPullsAndWaits) {
  Simulator sim;
  DestRig rig{sim, 64, {5}};
  bool done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    // Line 13: dirty read — send a pull request, park in the pending list.
    co_await rig.engine->on_request(7, storage::IoOp::kRead, BlockRange{5, 1});
    done = true;
  }(rig, done));
  sim.run();
  EXPECT_FALSE(done);  // parked
  EXPECT_EQ(rig.engine->stats().pull_requests, 1u);
  // The pull request is on the reverse stream.
  const auto req = rig.rev.try_recv();
  ASSERT_TRUE(req.has_value());
  const auto* pull = req->get_if<PullRequestMsg>();
  ASSERT_NE(pull, nullptr);
  EXPECT_EQ(pull->block, 5u);

  // Deliver the block: the read must be released (receive lines 6-11).
  sim.spawn([](DestRig& rig) -> Task<void> {
    co_await rig.engine->on_block_received(rig.make_block(5, /*pulled=*/true));
  }(rig));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(rig.engine->transferred().test(5));
  EXPECT_EQ(rig.engine->stats().blocks_pulled, 1u);
  EXPECT_TRUE(rig.engine->complete());
  EXPECT_EQ(rig.disk.token(5), 0xCAFEu);
  EXPECT_GT(rig.engine->max_read_stall(), Duration::zero());
}

TEST(PostCopyDestinationTest, DuplicatePullRequestsAreDeduplicated) {
  Simulator sim;
  DestRig rig{sim, 64, {5}};
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](DestRig& rig, int& done) -> Task<void> {
      co_await rig.engine->on_request(7, storage::IoOp::kRead, BlockRange{5, 1});
      ++done;
    }(rig, done));
  }
  sim.run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(rig.engine->stats().pull_requests, 1u);  // one wire request
  sim.spawn([](DestRig& rig) -> Task<void> {
    co_await rig.engine->on_block_received(rig.make_block(5, true));
  }(rig));
  sim.run();
  EXPECT_EQ(done, 3);  // all three readers released
}

TEST(PostCopyDestinationTest, PushedBlockDroppedAfterLocalOverwrite) {
  Simulator sim;
  DestRig rig{sim, 64, {5}};
  sim.spawn([](DestRig& rig) -> Task<void> {
    // Guest overwrites the block first...
    co_await rig.engine->on_request(7, storage::IoOp::kWrite, BlockRange{5, 1});
    co_await rig.disk.write(BlockRange{5, 1});  // the actual write
    // ...then the stale push arrives: receive lines 2-3 drop it.
    co_await rig.engine->on_block_received(rig.make_block(5, false, 0xDEAD));
  }(rig));
  sim.run();
  EXPECT_EQ(rig.engine->stats().blocks_dropped, 1u);
  EXPECT_EQ(rig.engine->stats().blocks_pushed, 0u);
  EXPECT_NE(rig.disk.token(5), 0xDEADu);  // local write won
  EXPECT_TRUE(rig.engine->complete());
}

TEST(PostCopyDestinationTest, OverwriteReleasesPendingRead) {
  // A read parked on a pull must be released when a concurrent guest write
  // supersedes the block (the data it will read is the fresh local write).
  Simulator sim;
  DestRig rig{sim, 64, {5}};
  bool read_done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    co_await rig.engine->on_request(7, storage::IoOp::kRead, BlockRange{5, 1});
    done = true;
  }(rig, read_done));
  sim.run();
  EXPECT_FALSE(read_done);
  sim.spawn([](DestRig& rig) -> Task<void> {
    co_await rig.engine->on_request(7, storage::IoOp::kWrite, BlockRange{5, 1});
  }(rig));
  sim.run();
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(rig.engine->complete());
}

TEST(PostCopyDestinationTest, PartiallyDirtyRangeAppliesOnlyDirtyRuns) {
  Simulator sim;
  DestRig rig{sim, 64, {10, 11, 13}};
  // Block 12 was overwritten locally (clean); a push covering 10-13 arrives.
  sim.spawn([](DestRig& rig) -> Task<void> {
    for (storage::BlockId b = 10; b < 14; ++b) {
      rig.source.poke_token(b, 0xA0 + (b - 10));
    }
    const DiskBlocksMsg msg =
        DiskBlocksMsg::from_disk(rig.source, BlockRange{10, 4}, /*pulled=*/false);
    co_await rig.engine->on_block_received(msg);
  }(rig));
  sim.run();
  EXPECT_EQ(rig.engine->stats().blocks_pushed, 3u);
  EXPECT_EQ(rig.engine->stats().blocks_dropped, 1u);
  EXPECT_EQ(rig.disk.token(10), 0xA0u);
  EXPECT_EQ(rig.disk.token(11), 0xA1u);
  EXPECT_NE(rig.disk.token(12), 0xA2u);  // dropped
  EXPECT_EQ(rig.disk.token(13), 0xA3u);
  EXPECT_TRUE(rig.engine->complete());
}

TEST(PostCopyDestinationTest, EmptyResidueIsCompleteImmediately) {
  Simulator sim;
  DestRig rig{sim, 64, {}};
  EXPECT_TRUE(rig.engine->complete());
  EXPECT_TRUE(rig.engine->done_gate().is_open());
}

TEST(PostCopyDestinationTest, DoneGateOpensOnLastBlock) {
  Simulator sim;
  DestRig rig{sim, 64, {1, 2}};
  bool synced = false;
  sim.spawn([](DestRig& rig, bool& synced) -> Task<void> {
    co_await rig.engine->done_gate().wait();
    synced = true;
  }(rig, synced));
  sim.spawn([](DestRig& rig) -> Task<void> {
    co_await rig.engine->on_block_received(rig.make_block(1, false));
    co_await rig.engine->on_block_received(rig.make_block(2, false));
  }(rig));
  sim.run();
  EXPECT_TRUE(synced);
}

TEST(PostCopyDestinationTest, PullDisabledWaitsForPush) {
  Simulator sim;
  DestRig rig{sim, 64, {5}, /*pull=*/false};
  bool done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    co_await rig.engine->on_request(7, storage::IoOp::kRead, BlockRange{5, 1});
    done = true;
  }(rig, done));
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(rig.engine->stats().pull_requests, 0u);  // no pull sent
  sim.spawn([](DestRig& rig) -> Task<void> {
    co_await rig.engine->on_block_received(rig.make_block(5, false));
  }(rig));
  sim.run();
  EXPECT_TRUE(done);  // push released it
}

// A guest read checks only its own blocks against the transferred-bitmap: a
// dirty block just past the range (at end()) or just before it (start - 1)
// neither pulls nor stalls the read; one at end() - 1 does. Both with the
// pull engine on and with push-only recovery.
TEST(PostCopyDestinationTest, ReadChecksExactlyItsOwnBlocks) {
  const BlockRange range{10, 4};  // blocks 10..13
  for (const bool pull : {true, false}) {
    for (const storage::BlockId dirty :
         {range.end(), range.end() - 1, range.start - 1}) {
      SCOPED_TRACE(::testing::Message()
                   << "pull=" << pull << " dirty=" << dirty);
      const bool inside = dirty >= range.start && dirty < range.end();
      Simulator sim;
      DestRig rig{sim, 64, {dirty}, pull};
      bool done = false;
      sim.spawn([](DestRig& rig, BlockRange r, bool& done) -> Task<void> {
        co_await rig.engine->on_request(7, storage::IoOp::kRead, r);
        done = true;
      }(rig, range, done));
      sim.run();
      EXPECT_EQ(done, !inside);
      EXPECT_EQ(rig.engine->stats().pull_requests, inside && pull ? 1u : 0u);
      if (inside && pull) {
        const auto req = rig.rev.try_recv();
        ASSERT_TRUE(req.has_value());
        const auto* msg = req->get_if<PullRequestMsg>();
        ASSERT_NE(msg, nullptr);
        EXPECT_EQ(msg->block, dirty);
      }
      EXPECT_EQ(rig.rev.pending(), 0u);
      EXPECT_TRUE(rig.engine->transferred().test(dirty));

      // Delivering the block releases a stalled read; either way the read
      // counts as blocked exactly when its own block was dirty.
      sim.spawn([](DestRig& rig, storage::BlockId b, bool pulled) -> Task<void> {
        co_await rig.engine->on_block_received(rig.make_block(b, pulled));
      }(rig, dirty, inside && pull));
      sim.run();
      EXPECT_TRUE(done);
      EXPECT_EQ(rig.engine->reads_blocked(), inside ? 1u : 0u);
      EXPECT_TRUE(rig.engine->complete());
    }
  }
}

TEST(PostCopyDestinationTest, ForceCompleteInstallsTruthAndReleases) {
  Simulator sim;
  DestRig rig{sim, 64, {3, 4}};
  storage::VirtualDisk truth{sim, Geometry::from_blocks(64), fast_disk()};
  truth.poke_token(3, 111);
  truth.poke_token(4, 222);
  bool done = false;
  sim.spawn([](DestRig& rig, bool& done) -> Task<void> {
    co_await rig.engine->on_request(7, storage::IoOp::kRead, BlockRange{3, 1});
    done = true;
  }(rig, done));
  sim.run();
  EXPECT_FALSE(done);
  rig.engine->force_complete(truth);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.engine->complete());
  EXPECT_EQ(rig.disk.token(3), 111u);
  EXPECT_EQ(rig.disk.token(4), 222u);
}

/// Source-side harness: disk with content, forward stream we can drain.
struct SrcRig {
  SrcRig(Simulator& sim, std::uint64_t blocks,
         std::initializer_list<storage::BlockId> remaining,
         std::uint32_t chunk = 4)
      : disk{sim, Geometry::from_blocks(blocks), fast_disk()},
        fwd_link{sim},
        fwd{sim, fwd_link} {
    for (storage::BlockId b = 0; b < blocks; ++b) disk.poke_token(b, 0x9900 + b);
    DirtyBitmap bm{BitmapKind::kFlat, blocks};
    for (const auto b : remaining) bm.set(b);
    engine = std::make_unique<PostCopySource>(sim, disk, std::move(bm), fwd,
                                              chunk, nullptr);
  }

  storage::VirtualDisk disk;
  net::Link fwd_link;
  MigStream fwd;
  std::unique_ptr<PostCopySource> engine;
};

TEST(PostCopySourceTest, PushesEverythingThenAnnouncesCompletion) {
  Simulator sim;
  SrcRig rig{sim, 64, {1, 2, 3, 10, 11, 40}};
  sim.spawn(rig.engine->run(), "pusher");
  sim.run();
  EXPECT_TRUE(rig.engine->finished());
  EXPECT_EQ(rig.engine->stats().blocks_pushed, 6u);
  // Drain the stream: pushes (coalesced into runs) then kPushComplete.
  std::uint64_t blocks = 0;
  bool complete_marker = false;
  while (auto m = rig.fwd.try_recv()) {
    if (const auto* d = m->get_if<DiskBlocksMsg>()) {
      blocks += d->range.count;
      EXPECT_FALSE(d->pull_response);
    } else if (const auto* c = m->get_if<ControlMsg>()) {
      EXPECT_EQ(c->kind, Control::kPushComplete);
      complete_marker = true;
    }
  }
  EXPECT_EQ(blocks, 6u);
  EXPECT_TRUE(complete_marker);
}

TEST(PostCopySourceTest, PullServedPreferentiallyAsPullResponse) {
  Simulator sim;
  SrcRig rig{sim, 4096, {}, /*chunk=*/4};
  // Large contiguous residue so the sweep takes a while.
  for (storage::BlockId b = 0; b < 4096; ++b) {
    // re-init remaining bitmap through a fresh engine
  }
  SrcRig rig2{sim, 4096, {}, 4};
  DirtyBitmap bm{BitmapKind::kFlat, 4096};
  bm.set_range(0, 4096);
  PostCopySource src{sim, rig2.disk, std::move(bm), rig2.fwd, 4, nullptr};
  src.enqueue_pull(4000);  // far from the sweep cursor
  sim.spawn(src.run(), "pusher");
  sim.run_for(1_ms);
  // The very first message should be the pull response for 4000.
  const auto first = rig2.fwd.try_recv();
  ASSERT_TRUE(first.has_value());
  const auto* d = first->get_if<DiskBlocksMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->pull_response);
  EXPECT_EQ(d->range.start, 4000u);
  sim.run();
  EXPECT_TRUE(src.finished());
  EXPECT_EQ(src.stats().blocks_pulled, 1u);
  EXPECT_EQ(src.stats().blocks_pushed + src.stats().blocks_pulled, 4096u);
}

TEST(PostCopySourceTest, PullAfterPushCompleteIsServedAsRecovery) {
  Simulator sim;
  SrcRig rig{sim, 64, {5}};
  sim.spawn(rig.engine->run(), "pusher");
  sim.run();  // block 5 pushed; push-complete announced
  EXPECT_TRUE(rig.engine->finished());
  // A pull arriving *after* the sweep means the destination never saw the
  // push (lost in flight): the source must serve it again, not ignore it.
  rig.engine->enqueue_pull(5);
  sim.run();
  EXPECT_EQ(rig.engine->stats().blocks_pulled, 1u);
  rig.engine->request_stop();
  sim.run();
}

TEST(PostCopySourceTest, RequestStopEndsPushEarly) {
  Simulator sim;
  SrcRig rig{sim, 4096, {}};
  DirtyBitmap bm{BitmapKind::kFlat, 4096};
  bm.set_range(0, 4096);
  PostCopySource src{sim, rig.disk, std::move(bm), rig.fwd, 4, nullptr};
  sim.spawn(src.run(), "pusher");
  sim.run_for(100_us);
  src.request_stop();
  sim.run();
  EXPECT_TRUE(src.finished());
  EXPECT_LT(src.stats().blocks_pushed, 4096u);
}

TEST(PostCopySourceTest, ChunksCoalesceContiguousRuns) {
  Simulator sim;
  SrcRig rig{sim, 64, {10, 11, 12, 13, 14, 15, 16, 17}, /*chunk=*/4};
  sim.spawn(rig.engine->run(), "pusher");
  sim.run();
  // 8 contiguous blocks at chunk 4 => exactly two push messages.
  int push_msgs = 0;
  while (auto m = rig.fwd.try_recv()) {
    if (m->is<DiskBlocksMsg>()) ++push_msgs;
  }
  EXPECT_EQ(push_msgs, 2);
}

}  // namespace
}  // namespace vmig::core

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "obs/profiler.hpp"
#include "simcore/rng.hpp"
#include "storage/block.hpp"
#include "storage/disk_model.hpp"
#include "storage/disk_scheduler.hpp"
#include "storage/virtual_disk.hpp"

namespace vmig::storage {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using sim::TimePoint;
using namespace vmig::sim::literals;

TEST(GeometryTest, Sizes) {
  const auto g = Geometry::from_mib(40960);  // 40 GiB
  EXPECT_EQ(g.block_size, 4096u);
  EXPECT_EQ(g.block_count, 10485760u);
  EXPECT_EQ(g.total_bytes(), 40ull * kGiB);
  EXPECT_DOUBLE_EQ(g.total_mib(), 40960.0);
  EXPECT_TRUE(g.contains(g.block_count - 1));
  EXPECT_FALSE(g.contains(g.block_count));
}

TEST(GeometryTest, SectorGranularity) {
  const auto g = Geometry::from_mib(32768, kSectorSize);
  EXPECT_EQ(g.block_count, 32ull * kGiB / 512);
}

TEST(BlockRangeTest, Basics) {
  BlockRange r{100, 50};
  EXPECT_EQ(r.end(), 150u);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.bytes(4096), 50u * 4096u);
  EXPECT_TRUE((BlockRange{0, 0}).empty());
}

TEST(DiskModelTest, SequentialTransferTime) {
  DiskModelParams p;
  p.seq_read_mbps = 100.0;
  p.request_overhead = Duration::zero();
  p.seek = Duration::millis(10);
  DiskModel m{p};
  // 100 MiB at 100 MiB/s = 1 s.
  EXPECT_EQ(m.transfer_time(IoOp::kRead, 100 * kMiB), 1_s);
}

TEST(DiskModelTest, SeekChargedOnlyWhenNonSequential) {
  DiskModelParams p;
  p.seq_read_mbps = 100.0;
  p.request_overhead = Duration::zero();
  p.seek = Duration::millis(10);
  p.seq_gap_blocks = 4;
  DiskModel m{p};
  const BlockRange r{1000, 1};
  const auto seq = m.service_time(IoOp::kRead, r, /*last_end=*/1000, 4096);
  const auto near = m.service_time(IoOp::kRead, r, /*last_end=*/997, 4096);
  const auto far = m.service_time(IoOp::kRead, r, /*last_end=*/0, 4096);
  EXPECT_EQ(seq, near);
  EXPECT_EQ(far - seq, Duration::millis(10));
}

TEST(DiskModelTest, WriteSlowerThanRead) {
  DiskModelParams p;
  p.seq_read_mbps = 100.0;
  p.seq_write_mbps = 50.0;
  DiskModel m{p};
  EXPECT_GT(m.transfer_time(IoOp::kWrite, kMiB), m.transfer_time(IoOp::kRead, kMiB));
}

TEST(DiskSchedulerTest, SequentialStreamHitsModelBandwidth) {
  Simulator sim;
  DiskModelParams p;
  p.seq_read_mbps = 64.0;
  p.request_overhead = Duration::zero();
  DiskScheduler sched{sim, DiskModel{p}};
  // Read 64 MiB in 1 MiB requests, back to back.
  sim.spawn([](Simulator& s, DiskScheduler& d) -> Task<void> {
    for (int i = 0; i < 64; ++i) {
      co_await d.execute(IoOp::kRead, BlockRange{static_cast<BlockId>(i) * 256, 256},
                         4096, IoSource::kMigration);
    }
    (void)s;
  }(sim, sched));
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 0.01);
  EXPECT_EQ(sched.bytes_transferred(IoSource::kMigration), 64 * kMiB);
  EXPECT_EQ(sched.requests_completed(), 64u);
}

TEST(DiskSchedulerTest, ContentionSharesBandwidth) {
  // Two streams each wanting full bandwidth finish in ~2x the solo time.
  Simulator sim;
  DiskModelParams p;
  p.seq_read_mbps = 100.0;
  p.request_overhead = Duration::zero();
  p.seek = Duration::zero();
  DiskScheduler sched{sim, DiskModel{p}};
  TimePoint done_a{}, done_b{};
  auto stream = [](DiskScheduler& d, Simulator& s, BlockId base,
                   TimePoint& done) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await d.execute(IoOp::kRead, BlockRange{base + static_cast<BlockId>(i) * 256, 256},
                         4096, IoSource::kGuest);
    }
    done = s.now();
  };
  sim.spawn(stream(sched, sim, 0, done_a));
  sim.spawn(stream(sched, sim, 1u << 20, done_b));
  sim.run();
  // 100 MiB total at 100 MiB/s => ~1s, both finish near the end.
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 0.05);
  EXPECT_GT(done_a.to_seconds(), 0.9);
  EXPECT_GT(done_b.to_seconds(), 0.9);
}

TEST(DiskSchedulerTest, QueueingDelaysLaterRequest) {
  Simulator sim;
  DiskModelParams p;
  p.seq_read_mbps = 1.0;  // 1 MiB/s: 1 MiB takes 1 s
  p.request_overhead = Duration::zero();
  p.seek = Duration::zero();
  DiskScheduler sched{sim, DiskModel{p}};
  TimePoint first{}, second{};
  sim.spawn([](DiskScheduler& d, Simulator& s, TimePoint& t) -> Task<void> {
    co_await d.execute(IoOp::kRead, BlockRange{0, 256}, 4096, IoSource::kGuest);
    t = s.now();
  }(sched, sim, first));
  sim.spawn([](DiskScheduler& d, Simulator& s, TimePoint& t) -> Task<void> {
    co_await d.execute(IoOp::kRead, BlockRange{256, 256}, 4096, IoSource::kGuest);
    t = s.now();
  }(sched, sim, second));
  sim.run();
  EXPECT_NEAR(first.to_seconds(), 1.0, 1e-6);
  EXPECT_NEAR(second.to_seconds(), 2.0, 1e-6);
}

TEST(DiskSchedulerTest, UtilizationAndBusyTime) {
  Simulator sim;
  DiskModelParams p;
  p.seq_read_mbps = 10.0;
  p.request_overhead = Duration::zero();
  p.seek = Duration::zero();
  DiskScheduler sched{sim, DiskModel{p}};
  sim.spawn([](DiskScheduler& d) -> Task<void> {
    co_await d.execute(IoOp::kRead, BlockRange{0, 2560}, 4096, IoSource::kGuest);
  }(sched));
  sim.run();
  EXPECT_NEAR(sched.busy_time().to_seconds(), 1.0, 1e-6);
  EXPECT_NEAR(sched.utilization(), 1.0, 1e-6);
  EXPECT_EQ(sched.latency().count(), 1u);
  EXPECT_NEAR(sched.latency().max().to_seconds(), 1.0, 0.5);
}

TEST(DiskSchedulerTest, QueueDepthAndLatencyChangeOnlyAtCompletion) {
  Simulator sim;
  DiskModelParams p;
  p.seq_read_mbps = 1.0;  // 1 MiB takes 1 s
  p.request_overhead = Duration::zero();
  p.seek = Duration::zero();
  DiskScheduler sched{sim, DiskModel{p}};
  TimePoint done{};
  sim.spawn([](DiskScheduler& d, Simulator& s, TimePoint& t) -> Task<void> {
    co_await d.execute(IoOp::kRead, BlockRange{0, 256}, 4096, IoSource::kGuest);
    t = s.now();
  }(sched, sim, done));
  // Queued at the call: the disk's schedule and counters moved.
  EXPECT_EQ(sched.queue_depth(), 1u);
  EXPECT_EQ(sched.requests_completed(), 1u);
  EXPECT_EQ(sched.latency().count(), 0u);
  sim.run_until(TimePoint::origin() + 1_s - Duration::nanos(1));
  EXPECT_EQ(sched.queue_depth(), 1u);
  EXPECT_EQ(sched.latency().count(), 0u);
  sim.run();
  EXPECT_EQ(done, TimePoint::origin() + 1_s);
  EXPECT_EQ(sched.queue_depth(), 0u);
  EXPECT_EQ(sched.latency().count(), 1u);
}

TEST(DiskSchedulerTest, DestroyingRequesterCancelsCompletion) {
  Simulator sim;
  DiskScheduler sched{sim, DiskModel{DiskModelParams{}}};
  {
    Task<void> t = [](DiskScheduler& d) -> Task<void> {
      co_await d.execute(IoOp::kWrite, BlockRange{0, 8}, 4096, IoSource::kGuest);
    }(sched);
    t.start();
    EXPECT_EQ(sim.pending_count(), 1u);
  }
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.run();  // nothing resumes the destroyed frame
  EXPECT_EQ(sched.latency().count(), 0u);
}

TEST(VirtualDiskTest, FreshDiskIsZero) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(100)};
  for (BlockId b = 0; b < 100; ++b) EXPECT_EQ(d.token(b), kZeroBlockToken);
}

TEST(VirtualDiskTest, WriteStampsFreshTokens) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(100)};
  sim.spawn([](VirtualDisk& d) -> Task<void> {
    co_await d.write(BlockRange{10, 5});
  }(d));
  sim.run();
  std::set<ContentToken> toks;
  for (BlockId b = 10; b < 15; ++b) {
    EXPECT_NE(d.token(b), kZeroBlockToken);
    toks.insert(d.token(b));
  }
  EXPECT_EQ(toks.size(), 5u);  // all distinct
  EXPECT_EQ(d.token(9), kZeroBlockToken);
  EXPECT_EQ(d.token(15), kZeroBlockToken);
}

TEST(VirtualDiskTest, RewriteChangesToken) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(10)};
  sim.spawn([](VirtualDisk& d) -> Task<void> {
    co_await d.write(BlockRange{0, 1});
  }(d));
  sim.run();
  const auto t1 = d.token(0);
  sim.spawn([](VirtualDisk& d) -> Task<void> {
    co_await d.write(BlockRange{0, 1});
  }(d));
  sim.run();
  EXPECT_NE(d.token(0), t1);
}

TEST(VirtualDiskTest, TokensUniqueAcrossDisks) {
  Simulator sim;
  VirtualDisk a{sim, Geometry::from_blocks(10)};
  VirtualDisk b{sim, Geometry::from_blocks(10)};
  sim.spawn([](VirtualDisk& a, VirtualDisk& b) -> Task<void> {
    co_await a.write(BlockRange{0, 1});
    co_await b.write(BlockRange{0, 1});
  }(a, b));
  sim.run();
  EXPECT_NE(a.token(0), b.token(0));
}

TEST(VirtualDiskTest, WriteSegmentsInstallsContent) {
  Simulator sim;
  VirtualDisk src{sim, Geometry::from_blocks(20)};
  VirtualDisk dst{sim, Geometry::from_blocks(20)};
  sim.spawn([](VirtualDisk& src, VirtualDisk& dst) -> Task<void> {
    co_await src.write(BlockRange{0, 20});
    const auto segs = src.snapshot_segments(BlockRange{0, 20});
    co_await dst.write_segments(BlockRange{0, 20}, segs);
  }(src, dst));
  sim.run();
  EXPECT_TRUE(src.content_equals(dst));
  EXPECT_TRUE(dst.diff_blocks(src).empty());
}

TEST(VirtualDiskTest, DiffBlocksFindsDivergence) {
  Simulator sim;
  VirtualDisk a{sim, Geometry::from_blocks(10)};
  VirtualDisk b{sim, Geometry::from_blocks(10)};
  sim.spawn([](VirtualDisk& a) -> Task<void> {
    co_await a.write(BlockRange{3, 2});
  }(a));
  sim.run();
  const auto diff = a.diff_blocks(b);
  EXPECT_EQ(diff, (std::vector<BlockId>{3, 4}));
  EXPECT_FALSE(a.content_equals(b));
}

TEST(VirtualDiskTest, PayloadModeRoundTrip) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(10, 512), {}, /*store_payloads=*/true};
  std::vector<std::byte> data(512 * 2);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i & 0xff);
  sim.spawn([](VirtualDisk& d, std::span<const std::byte> bytes) -> Task<void> {
    co_await d.write_bytes(BlockRange{4, 2}, bytes);
  }(d, data));
  sim.run();
  const auto p0 = d.payload(4);
  const auto p1 = d.payload(5);
  ASSERT_EQ(p0.size(), 512u);
  ASSERT_EQ(p1.size(), 512u);
  EXPECT_TRUE(std::equal(p0.begin(), p0.end(), data.begin()));
  EXPECT_TRUE(std::equal(p1.begin(), p1.end(), data.begin() + 512));
  EXPECT_EQ(d.token(4), VirtualDisk::hash_bytes({data.data(), 512}));
}

TEST(VirtualDiskTest, IdenticalPayloadsGiveIdenticalTokens) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(4, 512), {}, true};
  std::vector<std::byte> data(512, std::byte{7});
  sim.spawn([](VirtualDisk& d, std::span<const std::byte> bytes) -> Task<void> {
    co_await d.write_bytes(BlockRange{0, 1}, bytes);
    co_await d.write_bytes(BlockRange{2, 1}, bytes);
  }(d, data));
  sim.run();
  EXPECT_EQ(d.token(0), d.token(2));
  EXPECT_NE(d.token(0), kZeroBlockToken);
}

TEST(VirtualDiskTest, GuestWritesGenerateDistinctPayloads) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(4, 512), {}, true};
  sim.spawn([](VirtualDisk& d) -> Task<void> {
    co_await d.write(BlockRange{0, 2});
  }(d));
  sim.run();
  const auto p0 = d.payload(0);
  const auto p1 = d.payload(1);
  ASSERT_EQ(p0.size(), 512u);
  EXPECT_FALSE(std::equal(p0.begin(), p0.end(), p1.begin()));
}

TEST(VirtualDiskTest, HashAvoidsZeroSentinel) {
  // Any real content hash must differ from the never-written sentinel.
  std::vector<std::byte> data(64, std::byte{0});
  EXPECT_NE(VirtualDisk::hash_bytes(data), kZeroBlockToken);
}

TEST(VirtualDiskTest, TimedIoContendsThroughScheduler) {
  Simulator sim;
  DiskModelParams p;
  p.seq_read_mbps = 4.0;
  p.seq_write_mbps = 4.0;
  p.request_overhead = Duration::zero();
  p.seek = Duration::zero();
  VirtualDisk d{sim, Geometry::from_blocks(4096), p};
  sim.spawn([](VirtualDisk& d) -> Task<void> {
    co_await d.write(BlockRange{0, 1024});  // 4 MiB at 4 MiB/s = 1 s
  }(d));
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 1e-6);
  EXPECT_EQ(d.scheduler().bytes_transferred(IoSource::kGuest), 4 * kMiB);
}

TEST(VirtualDiskTest, PokeAffineSetsRuleWithoutMaterializing) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(3 * kTokenPageBlocks + 10)};
  d.poke_affine({0, 3 * kTokenPageBlocks + 10}, 0x5000);
  EXPECT_EQ(d.pages_materialized(), 0u);  // every page, the partial one too
  for (BlockId b = 0; b < d.geometry().block_count; ++b) {
    ASSERT_EQ(d.token(b), 0x5000 + b);
  }
  // A run that covers part of a page materializes just that page.
  d.poke_affine({kTokenPageBlocks + 5, 10}, 0x9000);
  EXPECT_EQ(d.pages_materialized(), 1u);
  EXPECT_EQ(d.token(kTokenPageBlocks + 4), 0x5000 + kTokenPageBlocks + 4);
  EXPECT_EQ(d.token(kTokenPageBlocks + 5), 0x9000 + kTokenPageBlocks + 5);
}

/// Run one timed disk call to completion.
void run_io(Simulator& sim, DiskIo io) {
  sim.spawn([](DiskIo io) -> Task<void> { co_await io; }(std::move(io)));
  sim.run();
}

// A chunk over rule pages carries one segment per page and no per-block
// token, however the range is aligned; the disk counts what it copied.
TEST(VirtualDiskTest, RulePageSnapshotCarriesNoPerBlockTokens) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(3 * kTokenPageBlocks + 10)};
  d.poke_affine({0, 2 * kTokenPageBlocks}, 0x5000);  // pages 0-1 affine
  const TokenSegments all =
      d.snapshot_segments({0, 3 * kTokenPageBlocks + 10});
  ASSERT_EQ(all.segments.size(), 4u);
  EXPECT_TRUE(all.tokens.empty());
  EXPECT_EQ(all.segments[0].tag, PageTag::kAffine);
  EXPECT_EQ(all.segments[0].base, 0x5000u);
  EXPECT_EQ(all.segments[1].tag, PageTag::kAffine);
  EXPECT_EQ(all.segments[1].base, 0x5000u);
  EXPECT_EQ(all.segments[2].tag, PageTag::kZero);
  EXPECT_EQ(all.segments[3].tag, PageTag::kZero);  // the partial last page
  EXPECT_EQ(all.entries(), 4u);
  // Unaligned and page-crossing: still one entry per page touched.
  const TokenSegments mid = d.snapshot_segments({100, 300});
  ASSERT_EQ(mid.segments.size(), 2u);
  EXPECT_TRUE(mid.tokens.empty());
  EXPECT_EQ(mid.token(100), 0x5000u + 100);
  EXPECT_EQ(mid.token(399), 0x5000u + 399);
  EXPECT_EQ(d.payload_entries(), 6u);
  EXPECT_EQ(d.pages_materialized(), 0u);
}

// An explicit page ships its tokens; on a whole non-explicit destination
// page an exactly affine span becomes a rule again, any other materializes.
TEST(VirtualDiskTest, ExplicitSpanKeepsTheAffineValueCheck) {
  Simulator sim;
  const Geometry g = Geometry::from_blocks(2 * kTokenPageBlocks);
  VirtualDisk src{sim, g};
  for (BlockId b = 0; b < kTokenPageBlocks; ++b) src.poke_token(b, 0x700 + b);
  src.poke_affine({kTokenPageBlocks, kTokenPageBlocks}, 0x900);
  src.poke_token(kTokenPageBlocks + 9, 1);  // page 1: explicit, not affine
  const TokenSegments segs = src.snapshot_segments({0, 2 * kTokenPageBlocks});
  ASSERT_EQ(segs.segments.size(), 2u);
  EXPECT_EQ(segs.segments[0].tag, PageTag::kExplicit);
  EXPECT_EQ(segs.segments[1].tag, PageTag::kExplicit);
  EXPECT_EQ(segs.tokens.size(), 2u * kTokenPageBlocks);
  EXPECT_EQ(segs.entries(), 2u + 2u * kTokenPageBlocks);

  VirtualDisk dst{sim, g};
  run_io(sim, dst.write_segments({0, 2 * kTokenPageBlocks}, segs));
  EXPECT_EQ(dst.pages_materialized(), 1u);  // page 1 only
  EXPECT_TRUE(dst.content_equals(src));
  EXPECT_EQ(dst.token(kTokenPageBlocks + 9), 1u);
}

// A whole non-explicit page that receives a zero rule keeps (or takes) the
// zero tag; a partly covered one materializes.
TEST(VirtualDiskTest, ZeroRuleKeepsTheZeroTag) {
  Simulator sim;
  const Geometry g = Geometry::from_blocks(3 * kTokenPageBlocks);
  VirtualDisk src{sim, g};
  VirtualDisk dst{sim, g};
  dst.poke_affine({0, 3 * kTokenPageBlocks}, 0x4000);
  const TokenSegments zeros = src.snapshot_segments({0, 3 * kTokenPageBlocks});
  run_io(sim, dst.write_segments({0, kTokenPageBlocks}, zeros));
  EXPECT_EQ(dst.pages_materialized(), 0u);
  EXPECT_FALSE(dst.has_explicit_tokens());
  EXPECT_EQ(dst.token(0), kZeroBlockToken);
  EXPECT_EQ(dst.token(kTokenPageBlocks - 1), kZeroBlockToken);
  EXPECT_EQ(dst.token(kTokenPageBlocks), 0x4000u + kTokenPageBlocks);
  run_io(sim, dst.write_segments({kTokenPageBlocks + 3, 10}, zeros));
  EXPECT_EQ(dst.pages_materialized(), 1u);
  EXPECT_EQ(dst.token(kTokenPageBlocks + 2), 0x4002u + kTokenPageBlocks);
  EXPECT_EQ(dst.token(kTokenPageBlocks + 3), kZeroBlockToken);
  EXPECT_EQ(dst.token(kTokenPageBlocks + 13), 0x400Du + kTokenPageBlocks);
}

// A sub-range install reads each explicit span at its offset in the chunk.
TEST(VirtualDiskTest, WriteSegmentsInstallsASubRange) {
  Simulator sim;
  const Geometry g = Geometry::from_blocks(4 * kTokenPageBlocks);
  VirtualDisk src{sim, g};
  src.poke_affine({0, 4 * kTokenPageBlocks}, 0x100);
  for (BlockId b = 300; b < 700; ++b) src.poke_token(b, 0xABC000 + 3 * b);
  const TokenSegments segs = src.snapshot_segments({10, 900});
  VirtualDisk dst{sim, g};
  run_io(sim, dst.write_segments({520, 200}, segs));
  for (BlockId b = 0; b < g.block_count; ++b) {
    ASSERT_EQ(dst.token(b), b >= 520 && b < 720 ? src.token(b) : 0u)
        << "block " << b;
  }
}

// The explicit token array belongs to the first materialization, not to
// construction: a disk whose pages keep their rules never allocates it.
TEST(VirtualDiskTest, ExplicitArrayIsAllocatedByTheFirstMaterialization) {
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(4 * kTokenPageBlocks)};
  EXPECT_FALSE(d.has_explicit_tokens());
  d.poke_affine({0, 4 * kTokenPageBlocks}, 0x5000);
  VirtualDisk copy{sim, d.geometry()};
  run_io(sim, copy.write_segments({0, 4 * kTokenPageBlocks},
                                  d.snapshot_segments({0, 4 * kTokenPageBlocks})));
  EXPECT_FALSE(d.has_explicit_tokens());
  EXPECT_FALSE(copy.has_explicit_tokens());
  EXPECT_TRUE(copy.content_equals(d));
  run_io(sim, d.write({5, 3}));
  EXPECT_TRUE(d.has_explicit_tokens());
  EXPECT_EQ(d.pages_materialized(), 1u);
}

TEST(VirtualDiskTest, DiffWordMasksDifferingBlocks) {
  Simulator sim;
  VirtualDisk a{sim, Geometry::from_blocks(kTokenPageBlocks + 70)};
  VirtualDisk b{sim, Geometry::from_blocks(kTokenPageBlocks + 70)};
  a.poke_affine({0, kTokenPageBlocks + 70}, 7);
  b.poke_affine({0, kTokenPageBlocks + 70}, 7);
  for (std::uint64_t w = 0; w < 6; ++w) EXPECT_EQ(a.diff_word(b, w), 0u);
  b.poke_token(65, 1);
  b.poke_token(127, 1);
  EXPECT_EQ(a.diff_word(b, 1),
            (std::uint64_t{1} << 1) | (std::uint64_t{1} << 63));
  EXPECT_EQ(a.diff_word(b, 0), 0u);
  // The last word is short: only its 6 real blocks can differ.
  a.poke_affine({kTokenPageBlocks, 70}, 8);
  EXPECT_EQ(a.diff_word(b, 5), (std::uint64_t{1} << 6) - 1);
}

std::uint64_t total_allocs(const obs::Profiler& prof) {
  std::uint64_t n = 0;
  for (int c = 0; c < static_cast<int>(obs::ProfCategory::kCount); ++c) {
    n += prof.stats(static_cast<obs::ProfCategory>(c)).allocs;
  }
  return n;
}

// Materializing a page writes into the disk's preallocated token array: a
// write into a never-touched page allocates nothing, in any category.
TEST(VirtualDiskTest, WriteIntoUntouchedPageAllocatesNothing) {
  obs::Profiler prof;
  prof.activate();
  Simulator sim;
  VirtualDisk d{sim, Geometry::from_blocks(64 * kTokenPageBlocks)};
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  // One root task, so spawn's own bookkeeping stays outside the window; the
  // first write sizes the frame arena and calendar.
  sim.spawn([](VirtualDisk& d, const obs::Profiler& prof, std::uint64_t& before,
               std::uint64_t& after) -> Task<void> {
    co_await d.write(BlockRange{3, 5});
    before = total_allocs(prof);
    co_await d.write(BlockRange{40 * kTokenPageBlocks + 3, 5});
    after = total_allocs(prof);
  }(d, prof, before, after));
  sim.run();
  obs::Profiler::deactivate();
  EXPECT_EQ(d.pages_materialized(), 2u);
  EXPECT_EQ(after, before);
}

// ---- Paged token store vs a dense reference ----------------------------

/// A paged disk and the dense token vector it must agree with.
struct Modeled {
  std::unique_ptr<VirtualDisk> disk;
  std::vector<ContentToken> ref;
};

class PagedStoreDifferential {
 public:
  static constexpr std::uint64_t kBlocks = 5 * kTokenPageBlocks + 77;
  static constexpr std::uint32_t kBlockSize = 512;

  explicit PagedStoreDifferential(std::uint64_t seed) : rng_{seed} {
    const Geometry g = Geometry::from_blocks(kBlocks, kBlockSize);
    a_.disk = std::make_unique<VirtualDisk>(sim_, g, DiskModelParams{},
                                            /*store_payloads=*/true);
    b_.disk = std::make_unique<VirtualDisk>(sim_, g);
    a_.ref.assign(kBlocks, kZeroBlockToken);
    b_.ref.assign(kBlocks, kZeroBlockToken);
  }

  void step() {
    const std::uint64_t target = rng_.uniform_u64(3);  // a, b, or both
    const BlockRange r = random_range();
    switch (rng_.uniform_u64(9)) {
      case 0: {
        const BlockId blk = rng_.uniform_u64(kBlocks);
        const ContentToken t = rng_.uniform_u64(4) == 0 ? blk : rng_.next_u64();
        for_targets(target, [&](Modeled& m) {
          m.disk->poke_token(blk, t);
          m.ref[blk] = t;
        });
        break;
      }
      case 1: {
        const ContentToken base = random_base();
        for_targets(target, [&](Modeled& m) {
          m.disk->poke_affine(r, base);
          for (BlockId b = r.start; b < r.end(); ++b) m.ref[b] = base + b;
        });
        break;
      }
      case 2:  // fresh tokens: consecutive in block order, never reused
        for_targets(target, [&](Modeled& m) {
          run(m.disk->write(r));
          if (r.count == 0) return;
          if (next_fresh_ != 0) {
            EXPECT_EQ(m.disk->token(r.start), next_fresh_);
          }
          const ContentToken first = m.disk->token(r.start);
          for (BlockId b = r.start; b < r.end(); ++b) {
            m.ref[b] = first + (b - r.start);
          }
          next_fresh_ = first + r.count;
        });
        break;
      case 3:
      case 4: {
        // Migration-style receive of explicit spans: aligned or unaligned
        // affine runs (an explicit source page can hold one), non-affine
        // runs, and runs that cross page boundaries.
        const BlockRange rr = rng_.uniform_u64(2) == 0 ? aligned_range() : r;
        std::vector<ContentToken> toks(rr.count);
        const ContentToken base = random_base();
        for (std::uint32_t i = 0; i < rr.count; ++i) {
          toks[i] = base + rr.start + i;
        }
        if (rng_.uniform_u64(2) == 0 && rr.count > 0) {
          toks[rng_.uniform_u64(rr.count)] = rng_.next_u64();
        }
        VirtualDisk stage{sim_, Geometry::from_blocks(kBlocks, kBlockSize)};
        for (std::uint32_t i = 0; i < rr.count; ++i) {
          stage.poke_token(rr.start + i, toks[i]);
        }
        const TokenSegments segs = stage.snapshot_segments(rr);
        for_targets(target, [&](Modeled& m) {
          run(m.disk->write_segments(rr, segs));
          std::copy(toks.begin(), toks.end(), m.ref.begin() + rr.start);
        });
        break;
      }
      case 5: {
        // Copy a range across, as a migration sender/receiver pair does.
        const bool to_a = rng_.uniform_u64(2) == 0;
        copy_across(to_a ? b_ : a_, to_a ? a_ : b_, r, r);
        break;
      }
      case 7: {
        // Snapshot a range on one disk and install a random sub-range of
        // it on the other, as post-copy applies a chunk's dirty sub-runs.
        const bool to_a = rng_.uniform_u64(2) == 0;
        const BlockId first = r.start + rng_.uniform_u64(r.count + 1);
        const auto len = static_cast<std::uint32_t>(
            rng_.uniform_u64(r.end() - first + 1));
        copy_across(to_a ? b_ : a_, to_a ? a_ : b_, r, {first, len});
        break;
      }
      case 6: {
        std::vector<std::byte> bytes(r.bytes(kBlockSize));
        for (std::byte& x : bytes) {
          x = static_cast<std::byte>(rng_.uniform_u64(3));  // collisions too
        }
        for_targets(target, [&](Modeled& m) {
          run(m.disk->write_bytes(r, bytes));
          for (std::uint32_t i = 0; i < r.count; ++i) {
            m.ref[r.start + i] = VirtualDisk::hash_bytes(std::span{bytes}.subspan(
                std::size_t{i} * kBlockSize, kBlockSize));
          }
        });
        break;
      }
      default:
        if (rng_.uniform_u64(8) == 0) {  // occasionally make b a full copy of a
          const BlockRange all{0, static_cast<std::uint32_t>(kBlocks)};
          copy_across(a_, b_, all, all);
        }
        break;
    }
  }

  void check() {
    for (const Modeled* m : {&a_, &b_}) {
      for (BlockId b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(m->disk->token(b), m->ref[b]) << "block " << b;
      }
      const BlockRange r = random_range();
      const std::uint64_t entries0 = m->disk->payload_entries();
      const TokenSegments segs = m->disk->snapshot_segments(r);
      std::uint64_t explicit_blocks = 0;
      for (BlockId b = r.start; b < r.end(); ++b) {
        ASSERT_EQ(segs.token(b), m->ref[b]) << "snapshot block " << b;
        const std::size_t i = b / kTokenPageBlocks - segs.first_page();
        explicit_blocks += segs.segments[i].tag == PageTag::kExplicit;
      }
      EXPECT_EQ(segs.segments.size(),
                r.count == 0 ? 0
                             : (r.end() - 1) / kTokenPageBlocks -
                                   r.start / kTokenPageBlocks + 1);
      EXPECT_EQ(segs.tokens.size(), explicit_blocks);
      EXPECT_EQ(m->disk->payload_entries() - entries0, segs.entries());
      EXPECT_LE(m->disk->pages_materialized(),
                (kBlocks + kTokenPageBlocks - 1) / kTokenPageBlocks);
    }
    std::vector<BlockId> differing;
    for (std::uint64_t w = 0; w * 64 < kBlocks; ++w) {
      std::uint64_t mask = 0;
      for (BlockId b = w * 64; b < std::min(kBlocks, w * 64 + 64); ++b) {
        if (a_.ref[b] != b_.ref[b]) {
          mask |= std::uint64_t{1} << (b - w * 64);
          differing.push_back(b);
        }
      }
      ASSERT_EQ(a_.disk->diff_word(*b_.disk, w), mask) << "word " << w;
      ASSERT_EQ(b_.disk->diff_word(*a_.disk, w), mask) << "word " << w;
    }
    EXPECT_EQ(a_.disk->diff_blocks(*b_.disk), differing);
    EXPECT_EQ(a_.disk->content_equals(*b_.disk), differing.empty());
    if (differing.empty()) ++equal_checks;
  }

  int equal_checks = 0;  ///< checks that found the two disks identical

 private:
  void run(Task<void> t) {
    sim_.spawn(std::move(t));
    sim_.run();
  }
  /// The disk's timed calls return their completion awaiter directly.
  void run(DiskIo io) {
    run([](DiskIo io) -> Task<void> { co_await io; }(std::move(io)));
  }

  /// Snapshot `r` on `from` and install its sub-range `sub` on `to`.
  void copy_across(const Modeled& from, Modeled& to, BlockRange r,
                   BlockRange sub) {
    const TokenSegments segs = from.disk->snapshot_segments(r);
    run(to.disk->write_segments(sub, segs));
    std::copy(from.ref.begin() + sub.start, from.ref.begin() + sub.end(),
              to.ref.begin() + sub.start);
  }

  template <typename F>
  void for_targets(std::uint64_t target, F&& f) {
    if (target != 1) f(a_);
    if (target != 0) f(b_);
  }

  /// Up to ~1.5 pages anywhere, so runs often straddle a page boundary.
  BlockRange random_range() {
    const BlockId start = rng_.uniform_u64(kBlocks);
    const std::uint64_t room = kBlocks - start;
    const std::uint64_t len = std::min<std::uint64_t>(
        room, rng_.uniform_u64(kTokenPageBlocks * 3 / 2));
    return {start, static_cast<std::uint32_t>(len)};
  }

  /// One or more whole pages, possibly ending at the partial last page.
  BlockRange aligned_range() {
    const std::uint64_t pages =
        (kBlocks + kTokenPageBlocks - 1) / kTokenPageBlocks;
    const std::uint64_t first = rng_.uniform_u64(pages);
    const std::uint64_t n =
        1 + rng_.uniform_u64(std::min<std::uint64_t>(3, pages - first));
    const BlockId start = first * kTokenPageBlocks;
    const BlockId end =
        std::min<BlockId>(kBlocks, (first + n) * kTokenPageBlocks);
    return {start, static_cast<std::uint32_t>(end - start)};
  }

  /// A small pool of bases, so both disks often carry the same rule.
  ContentToken random_base() { return 0x1000 * (1 + rng_.uniform_u64(4)); }

  sim::Rng rng_;
  Simulator sim_;
  Modeled a_;
  Modeled b_;
  ContentToken next_fresh_ = 0;
};

TEST(VirtualDiskTest, PagedStoreMatchesDenseReference) {
  int equal_checks = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    // Leave poisoned blocks of the backing arrays' size on the heap, so a
    // disk that reads a never-materialized entry sees junk, not zeros.
    {
      std::vector<std::unique_ptr<ContentToken[]>> junk;
      for (int i = 0; i < 3; ++i) {
        junk.push_back(std::make_unique_for_overwrite<ContentToken[]>(
            PagedStoreDifferential::kBlocks));
        std::fill_n(junk.back().get(), PagedStoreDifferential::kBlocks,
                    0xdeadbeefdeadbeefULL);
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    PagedStoreDifferential t{seed};
    for (int op = 0; op < 300; ++op) {
      t.step();
      ASSERT_NO_FATAL_FAILURE(t.check());
    }
    equal_checks += t.equal_checks;
  }
  EXPECT_GT(equal_checks, 0);  // content_equals was exercised both ways
}

}  // namespace
}  // namespace vmig::storage

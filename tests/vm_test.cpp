#include <gtest/gtest.h>

#include <vector>

#include "simcore/simulator.hpp"
#include "storage/virtual_disk.hpp"
#include "vm/blk_backend.hpp"
#include "vm/domain.hpp"
#include "vm/guest_memory.hpp"

namespace vmig::vm {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using storage::BlockRange;
using storage::Geometry;
using storage::IoOp;
using namespace vmig::sim::literals;

TEST(GuestMemoryTest, Layout) {
  GuestMemory m{512};  // 512 MiB
  EXPECT_EQ(m.page_count(), 131072u);
  EXPECT_EQ(m.page_size(), 4096u);
  EXPECT_EQ(m.total_bytes(), 512ull * 1024 * 1024);
}

TEST(GuestMemoryTest, WriteBumpsVersion) {
  GuestMemory m{1};
  EXPECT_EQ(m.version(0), 0u);
  m.write_page(0);
  const auto v1 = m.version(0);
  EXPECT_GT(v1, 0u);
  m.write_page(0);
  EXPECT_GT(m.version(0), v1);
  EXPECT_EQ(m.write_count(), 2u);
}

TEST(GuestMemoryTest, DirtyLogOnlyWhenEnabled) {
  GuestMemory m{1};
  m.write_page(3);
  EXPECT_EQ(m.dirty_page_count(), 0u);
  m.enable_dirty_log();
  m.write_page(4);
  m.write_page(5);
  EXPECT_EQ(m.dirty_page_count(), 2u);
  m.disable_dirty_log();
  m.write_page(6);
  EXPECT_EQ(m.dirty_page_count(), 2u);
}

TEST(GuestMemoryTest, EnableResetsLog) {
  GuestMemory m{1};
  m.enable_dirty_log();
  m.write_page(1);
  m.enable_dirty_log();
  EXPECT_EQ(m.dirty_page_count(), 0u);
}

TEST(GuestMemoryTest, TakeDirtyAndReset) {
  GuestMemory m{1};
  m.enable_dirty_log();
  m.write_page(10);
  m.write_page(20);
  const auto snap = m.take_dirty_and_reset();
  EXPECT_EQ(snap.count_set(), 2u);
  EXPECT_TRUE(snap.test(10));
  EXPECT_EQ(m.dirty_page_count(), 0u);
  m.write_page(30);
  EXPECT_EQ(m.dirty_page_count(), 1u);  // logging continues after take
}

TEST(GuestMemoryTest, ContentEqualsAndApply) {
  GuestMemory a{1}, b{1};
  EXPECT_TRUE(a.content_equals(b));
  a.write_page(7);
  EXPECT_FALSE(a.content_equals(b));
  b.apply_versions(7, a.snapshot_run(7, 1));
  EXPECT_TRUE(a.content_equals(b));
}

// The version array belongs to the first nonzero version; a missing array
// reads, snapshots and compares as all zero.
TEST(GuestMemoryTest, VersionArrayIsAllocatedOnFirstUse) {
  GuestMemory idle{1}, zeroed{1};
  EXPECT_FALSE(idle.has_versions());
  EXPECT_EQ(idle.version(200), 0u);
  EXPECT_TRUE(idle.snapshot_run(0, 256).empty());
  EXPECT_EQ(idle.payload_entries(), 1u);  // the run alone
  idle.apply_zero(0, 256);
  EXPECT_FALSE(idle.has_versions());

  zeroed.reserve_versions();  // an all-zero array
  EXPECT_TRUE(zeroed.has_versions());
  EXPECT_TRUE(idle.content_equals(zeroed));
  EXPECT_TRUE(zeroed.content_equals(idle));
  zeroed.write_page(9);
  EXPECT_FALSE(idle.content_equals(zeroed));
  EXPECT_FALSE(zeroed.content_equals(idle));
  EXPECT_EQ(zeroed.snapshot_run(8, 3).size(), 3u);
  EXPECT_EQ(zeroed.payload_entries(), 4u);  // the run and three versions
  zeroed.apply_zero(9, 1);  // a zero run clears an existing array
  EXPECT_TRUE(idle.content_equals(zeroed));

  const std::uint64_t v[] = {0, 0};
  idle.apply_versions(4, v);  // an applied run from written memory
  EXPECT_TRUE(idle.has_versions());
  EXPECT_TRUE(idle.content_equals(zeroed));
}

TEST(VCpuStateTest, TouchAndWire) {
  VCpuState c;
  const auto v = c.version;
  c.touch();
  EXPECT_GT(c.version, v);
  EXPECT_EQ(c.wire_bytes(), VCpuState::kWireBytes);
}

class BlkBackendTest : public ::testing::Test {
 protected:
  BlkBackendTest()
      : disk_{sim_, Geometry::from_blocks(1024)}, be_{sim_, disk_, 1} {}

  Simulator sim_;
  storage::VirtualDisk disk_;
  BlkBackend be_;
};

TEST_F(BlkBackendTest, WritesReachDisk) {
  sim_.spawn([](BlkBackend& be) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{5, 3});
  }(be_));
  sim_.run();
  EXPECT_NE(disk_.token(5), storage::kZeroBlockToken);
  EXPECT_NE(disk_.token(7), storage::kZeroBlockToken);
  EXPECT_EQ(be_.guest_writes(), 1u);
  EXPECT_EQ(be_.guest_write_bytes(), 3u * 4096u);
}

TEST_F(BlkBackendTest, TrackingRecordsServedDomainWrites) {
  be_.start_write_tracking(core::BitmapKind::kLayered);
  sim_.spawn([](BlkBackend& be) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{10, 2});
    co_await be.submit(1, IoOp::kRead, BlockRange{50, 1});   // reads not tracked
    co_await be.submit(2, IoOp::kWrite, BlockRange{20, 2});  // other domain
  }(be_));
  sim_.run();
  EXPECT_EQ(be_.dirty_block_count(), 2u);
  const auto bm = be_.snapshot_dirty();
  EXPECT_TRUE(bm.test(10));
  EXPECT_TRUE(bm.test(11));
  EXPECT_FALSE(bm.test(20));
  EXPECT_FALSE(bm.test(50));
}

TEST_F(BlkBackendTest, SnapshotAndResetClearsButKeepsTracking) {
  be_.start_write_tracking(core::BitmapKind::kFlat);
  sim_.spawn([](BlkBackend& be) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{1, 1});
  }(be_));
  sim_.run();
  const auto snap = be_.snapshot_dirty_and_reset();
  EXPECT_EQ(snap.count_set(), 1u);
  EXPECT_EQ(be_.dirty_block_count(), 0u);
  EXPECT_TRUE(be_.tracking());
  sim_.spawn([](BlkBackend& be) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{2, 1});
  }(be_));
  sim_.run();
  EXPECT_EQ(be_.dirty_block_count(), 1u);
}

TEST_F(BlkBackendTest, StopTrackingStopsRecording) {
  be_.start_write_tracking(core::BitmapKind::kFlat);
  be_.stop_write_tracking();
  sim_.spawn([](BlkBackend& be) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{1, 1});
  }(be_));
  sim_.run();
  EXPECT_EQ(be_.dirty_block_count(), 0u);
}

TEST_F(BlkBackendTest, TrackingOverheadDelaysWrite) {
  storage::DiskModelParams fast;
  fast.request_overhead = Duration::zero();
  fast.seek = Duration::zero();
  fast.seq_write_mbps = 1e9;  // make the disk free; isolate tracking cost
  Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(64), fast};
  BlkBackend be{sim, disk, 1};
  be.start_write_tracking(core::BitmapKind::kFlat);
  be.set_tracking_overhead(5_us);
  sim.spawn([](BlkBackend& be) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await be.submit(1, IoOp::kWrite, BlockRange{0, 1});
    }
  }(be));
  sim.run();
  EXPECT_GE(sim.now().to_seconds(), 10 * 5e-6);
}

namespace {
class HoldInterceptor final : public IoInterceptor {
 public:
  explicit HoldInterceptor(Simulator& sim) : gate_{sim} {}
  Task<void> on_request(DomainId, storage::IoOp, BlockRange) override {
    ++intercepted;
    co_await gate_.wait();
  }
  void release() { gate_.open(); }
  int intercepted = 0;

 private:
  sim::Gate gate_;
};
}  // namespace

TEST_F(BlkBackendTest, InterceptorHoldsRequests) {
  HoldInterceptor hold{sim_};
  be_.install_interceptor(&hold);
  bool done = false;
  sim_.spawn([](BlkBackend& be, bool& done) -> Task<void> {
    co_await be.submit(1, IoOp::kRead, BlockRange{0, 1});
    done = true;
  }(be_, done));
  sim_.run();
  EXPECT_EQ(hold.intercepted, 1);
  EXPECT_FALSE(done);
  hold.release();
  sim_.run();
  EXPECT_TRUE(done);
  be_.remove_interceptor();
  EXPECT_FALSE(be_.intercepting());
}

// ---- Request-path contract (what the recorded simulated outputs rely on) ----

TEST_F(BlkBackendTest, InterceptedWriteWaitsForOnRequest) {
  HoldInterceptor hold{sim_};
  be_.install_interceptor(&hold);
  be_.start_write_tracking(core::BitmapKind::kFlat);
  bool done = false;
  sim_.spawn([](BlkBackend& be, bool& done) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{4, 2});
    done = true;
  }(be_, done));
  sim_.run();
  EXPECT_EQ(hold.intercepted, 1);
  EXPECT_EQ(be_.guest_writes(), 0u);  // not counted, marked or written yet
  EXPECT_EQ(be_.dirty_block_count(), 0u);
  EXPECT_EQ(disk_.token(4), storage::kZeroBlockToken);
  EXPECT_EQ(disk_.scheduler().queue_depth(), 0u);
  hold.release();
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(be_.guest_writes(), 1u);
  EXPECT_EQ(be_.dirty_block_count(), 2u);
  EXPECT_NE(disk_.token(4), storage::kZeroBlockToken);
}

TEST_F(BlkBackendTest, WriteObserverInstalledMidFlightFiresAtCompletion) {
  sim::TimePoint done_at;
  sim_.spawn([](Simulator& sim, BlkBackend& be, sim::TimePoint& at) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{5, 2});
    at = sim.now();
  }(sim_, be_, done_at));
  // The write is on its way to the disk; the observer arrives after it.
  ASSERT_EQ(disk_.scheduler().queue_depth(), 1u);
  std::vector<BlockRange> seen;
  sim::TimePoint seen_at;
  be_.set_write_observer([&](BlockRange r) {
    seen.push_back(r);
    seen_at = sim_.now();
  });
  sim_.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].start, 5u);
  EXPECT_EQ(seen[0].count, 2u);
  EXPECT_GT(seen_at, sim::TimePoint::origin());
  EXPECT_EQ(seen_at, done_at);
}

TEST(BlkBackendContractTest, TrackedWriteWithOverheadTiming) {
  Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(64)};
  BlkBackend be{sim, disk, 1};
  be.start_write_tracking(core::BitmapKind::kFlat);
  be.set_tracking_overhead(2_us);
  std::vector<sim::TimePoint> hook_at;
  be.set_redirty_hook([&](BlockRange) { hook_at.push_back(sim.now()); });
  const BlockRange r{8, 2};
  const Duration service = disk.scheduler().estimate(IoOp::kWrite, r, 4096);
  const auto t0 = sim::TimePoint::origin();
  sim::TimePoint done_at;
  sim.spawn([](Simulator& sim, BlkBackend& be, BlockRange r,
               sim::TimePoint& at) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, r);
    at = sim.now();
  }(sim, be, r, done_at));

  // At submit: marked and hooked, but neither counted nor written.
  EXPECT_EQ(be.dirty_block_count(), 2u);
  EXPECT_EQ(hook_at, (std::vector<sim::TimePoint>{t0}));
  EXPECT_EQ(be.guest_writes(), 0u);
  EXPECT_EQ(disk.token(8), storage::kZeroBlockToken);
  sim.run_until(t0 + 2_us - Duration::nanos(1));
  EXPECT_EQ(be.guest_writes(), 0u);
  EXPECT_EQ(disk.scheduler().queue_depth(), 0u);

  // Overhead paid: counted, tokens installed, queued on the disk.
  sim.run_until(t0 + 2_us);
  EXPECT_EQ(be.guest_writes(), 1u);
  EXPECT_NE(disk.token(8), storage::kZeroBlockToken);
  EXPECT_EQ(disk.scheduler().queue_depth(), 1u);

  sim.run();
  EXPECT_EQ(done_at, t0 + 2_us + service);
  EXPECT_EQ(disk.scheduler().queue_depth(), 0u);
}

TEST(BlkBackendContractTest, DestroyingRequesterCancelsItsTimer) {
  Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(64)};
  BlkBackend be{sim, disk, 1};
  be.start_write_tracking(core::BitmapKind::kFlat);
  be.set_tracking_overhead(2_us);
  const auto write = [](BlkBackend& be) -> Task<void> {
    co_await be.submit(1, IoOp::kWrite, BlockRange{0, 1});
  };
  {
    Task<void> t = write(be);
    t.start();  // waiting out the tracking overhead
    EXPECT_EQ(sim.pending_count(), 1u);
  }
  EXPECT_EQ(sim.pending_count(), 0u);
  {
    Task<void> t = write(be);
    t.start();
    sim.run_until(sim.now() + 2_us);  // overhead paid: waiting on the disk
    EXPECT_EQ(disk.scheduler().queue_depth(), 1u);
    EXPECT_EQ(sim.pending_count(), 1u);
  }
  EXPECT_EQ(sim.pending_count(), 0u);
  {
    HoldInterceptor hold{sim};
    be.install_interceptor(&hold);
    Task<void> t = write(be);
    t.start();  // held in the interceptor's coroutine
    EXPECT_EQ(hold.intercepted, 1);
    be.remove_interceptor();
  }
  sim.run();  // nothing resumes a destroyed frame
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(BlkBackendContractTest, RunningDomainRequestsCreateNoFrames) {
  Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(256)};
  BlkBackend be{sim, disk, 7};
  Domain d{sim, 7, "vm7", 16};
  d.frontend().connect(&be);
  std::vector<std::uint64_t> frames;
  sim.spawn([](Simulator& sim, Domain& d, BlkBackend& be,
               std::vector<std::uint64_t>& frames) -> Task<void> {
    std::uint64_t f = sim.frames_created();
    const auto record = [&] {
      frames.push_back(sim.frames_created() - f);
      f = sim.frames_created();
    };
    co_await d.disk_read(BlockRange{0, 4});
    record();
    co_await d.disk_write(BlockRange{4, 4});  // untracked
    record();
    be.start_write_tracking(core::BitmapKind::kFlat);
    be.set_tracking_overhead(2_us);
    co_await d.disk_write(BlockRange{8, 4});  // tracked, with overhead
    record();
    co_await d.barrier();
    record();
  }(sim, d, be, frames));
  sim.run();
  EXPECT_EQ(frames, (std::vector<std::uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(be.guest_reads(), 1u);
  EXPECT_EQ(be.guest_writes(), 2u);
  EXPECT_EQ(be.dirty_block_count(), 4u);
}

TEST(DomainTest, LifecycleAndSuspendedTime) {
  Simulator sim;
  Domain d{sim, 1, "vm1", 16};
  EXPECT_TRUE(d.running());
  sim.run_for(1_s);
  d.suspend();
  EXPECT_FALSE(d.running());
  sim.run_for(500_ms);
  d.resume();
  EXPECT_TRUE(d.running());
  EXPECT_EQ(d.total_suspended_time(), 500_ms);
  // Idempotent operations.
  d.resume();
  d.suspend();
  d.suspend();
  sim.run_for(100_ms);
  d.resume();
  EXPECT_EQ(d.total_suspended_time(), 600_ms);
}

TEST(DomainTest, BarrierBlocksWhileSuspended) {
  Simulator sim;
  Domain d{sim, 1, "vm1", 16};
  std::vector<int> order;
  d.suspend();
  sim.spawn([](Domain& d, std::vector<int>& o) -> Task<void> {
    co_await d.barrier();
    o.push_back(1);
  }(d, order));
  sim.run();
  EXPECT_TRUE(order.empty());
  d.resume();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(DomainTest, DiskIoRoutesThroughFrontendToBackend) {
  Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(256)};
  BlkBackend be{sim, disk, 7};
  Domain d{sim, 7, "vm7", 16};
  d.frontend().connect(&be);
  be.start_write_tracking(core::BitmapKind::kLayered);
  sim.spawn([](Domain& d) -> Task<void> {
    co_await d.disk_write(BlockRange{3, 1});
    co_await d.disk_read(BlockRange{3, 1});
  }(d));
  sim.run();
  EXPECT_EQ(be.guest_writes(), 1u);
  EXPECT_EQ(be.guest_reads(), 1u);
  EXPECT_TRUE(be.snapshot_dirty().test(3));  // tracked under the domain's id
}

TEST(DomainTest, SuspendedDomainDoesNoIo) {
  Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(256)};
  BlkBackend be{sim, disk, 7};
  Domain d{sim, 7, "vm7", 16};
  d.frontend().connect(&be);
  d.suspend();
  sim.spawn([](Domain& d) -> Task<void> {
    co_await d.disk_write(BlockRange{0, 1});
  }(d));
  sim.run();
  EXPECT_EQ(be.guest_writes(), 0u);
  d.resume();
  sim.run();
  EXPECT_EQ(be.guest_writes(), 1u);
}

TEST(DomainTest, SuspendedRequestWaitsForResumeThenTakesSamePath) {
  // Issued on the source while frozen, the write lands on whichever
  // backend the domain is connected to when it resumes, is tracked there,
  // and completes a service time after the resume.
  Simulator sim;
  storage::VirtualDisk disk_a{sim, Geometry::from_blocks(64)};
  storage::VirtualDisk disk_b{sim, Geometry::from_blocks(64)};
  BlkBackend be_a{sim, disk_a, 7};
  BlkBackend be_b{sim, disk_b, 7};
  be_b.start_write_tracking(core::BitmapKind::kFlat);
  Domain d{sim, 7, "vm7", 16};
  d.frontend().connect(&be_a);
  d.suspend();
  sim::TimePoint done_at;
  sim.spawn([](Simulator& sim, Domain& d, sim::TimePoint& at) -> Task<void> {
    co_await d.disk_write(BlockRange{3, 1});
    at = sim.now();
  }(sim, d, done_at));
  sim.run_for(1_ms);
  EXPECT_EQ(be_a.guest_writes() + be_b.guest_writes(), 0u);
  d.frontend().connect(&be_b);
  const Duration service =
      disk_b.scheduler().estimate(IoOp::kWrite, BlockRange{3, 1}, 4096);
  const sim::TimePoint resumed = sim.now();
  d.resume();
  sim.run();
  EXPECT_EQ(be_a.guest_writes(), 0u);
  EXPECT_EQ(be_b.guest_writes(), 1u);
  EXPECT_TRUE(be_b.snapshot_dirty().test(3));
  EXPECT_EQ(disk_a.token(3), storage::kZeroBlockToken);
  EXPECT_NE(disk_b.token(3), storage::kZeroBlockToken);
  EXPECT_EQ(done_at, resumed + service);
}

TEST(DomainTest, FrontendRebindSwitchesDisks) {
  Simulator sim;
  storage::VirtualDisk disk_a{sim, Geometry::from_blocks(64)};
  storage::VirtualDisk disk_b{sim, Geometry::from_blocks(64)};
  BlkBackend be_a{sim, disk_a, 7};
  BlkBackend be_b{sim, disk_b, 7};
  Domain d{sim, 7, "vm7", 16};
  d.frontend().connect(&be_a);
  sim.spawn([](Domain& d) -> Task<void> {
    co_await d.disk_write(BlockRange{0, 1});
  }(d));
  sim.run();
  d.frontend().connect(&be_b);
  sim.spawn([](Domain& d) -> Task<void> {
    co_await d.disk_write(BlockRange{1, 1});
  }(d));
  sim.run();
  EXPECT_NE(disk_a.token(0), storage::kZeroBlockToken);
  EXPECT_EQ(disk_a.token(1), storage::kZeroBlockToken);
  EXPECT_NE(disk_b.token(1), storage::kZeroBlockToken);
}

}  // namespace
}  // namespace vmig::vm

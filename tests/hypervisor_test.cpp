#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hypervisor/checkpoint.hpp"
#include "hypervisor/host.hpp"

namespace vmig::hv {
namespace {

using core::MigrationConfig;
using core::MigrationMessage;
using sim::Simulator;
using sim::Task;
using storage::Geometry;
using namespace vmig::sim::literals;

TEST(HostTest, ConstructionAndDisk) {
  Simulator sim;
  Host h{sim, "alpha", Geometry::from_mib(64)};
  EXPECT_EQ(h.name(), "alpha");
  EXPECT_EQ(h.disk().geometry().total_bytes(), 64ull * 1024 * 1024);
  EXPECT_TRUE(h.domains().empty());
}

TEST(HostTest, AttachDetachDomain) {
  Simulator sim;
  Host h{sim, "alpha", Geometry::from_mib(64)};
  vm::Domain d{sim, 3, "vm", 16};
  h.attach_domain(d);
  EXPECT_TRUE(h.hosts_domain(d));
  EXPECT_TRUE(d.frontend().connected());
  EXPECT_EQ(h.backend().served_domain(), 3u);
  h.detach_domain(d);
  EXPECT_FALSE(h.hosts_domain(d));
  EXPECT_FALSE(d.frontend().connected());
}

TEST(HostTest, PerDomainVbdsShareThePhysicalDisk) {
  Simulator sim;
  Host h{sim, "h", Geometry::from_mib(32)};
  vm::Domain d1{sim, 1, "d1", 4};
  vm::Domain d2{sim, 2, "d2", 4};
  h.attach_domain(d1);
  h.attach_domain(d2);
  auto& vbd1 = h.vbd_for(1);
  auto& vbd2 = h.vbd_for(2);
  EXPECT_NE(&vbd1, &vbd2);                              // separate block spaces
  EXPECT_EQ(&vbd1.scheduler(), &vbd2.scheduler());      // one spindle
  EXPECT_EQ(&vbd1, &h.disk());                          // first claims primary
  // Writes land in the right VBD only.
  vbd1.poke_token(7, 111);
  EXPECT_EQ(vbd2.token(7), storage::kZeroBlockToken);
}

TEST(HostTest, VbdPersistsAcrossDetach) {
  Simulator sim;
  Host h{sim, "h", Geometry::from_mib(16)};
  vm::Domain d{sim, 3, "d", 4};
  h.attach_domain(d);
  h.vbd_for(3).poke_token(5, 42);
  h.backend_for(3).start_write_tracking(core::BitmapKind::kLayered);
  h.detach_domain(d);
  // The base image and the tracking bitmap survive the VM's absence —
  // that's what makes the later incremental migration back possible.
  EXPECT_EQ(h.vbd_for(3).token(5), 42u);
  EXPECT_TRUE(h.backend_for(3).tracking());
  h.attach_domain(d);
  EXPECT_EQ(d.frontend().backend(), &h.backend_for(3));
}

TEST(HostTest, DefaultBackendClaimedByFirstDomain) {
  Simulator sim;
  Host h{sim, "h", Geometry::from_mib(16)};
  auto& default_be = h.backend();  // created before any domain attaches
  vm::Domain d{sim, 9, "d", 4};
  h.attach_domain(d);
  EXPECT_EQ(&default_be, d.frontend().backend());
  EXPECT_EQ(default_be.served_domain(), 9u);
}

TEST(HostTest, FindLookupsNeverCreate) {
  Simulator sim;
  Host h{sim, "h", Geometry::from_mib(16)};
  vm::Domain d{sim, 7, "d", 4};
  h.attach_domain(d);
  EXPECT_EQ(h.find_vbd(7), &h.vbd_for(7));
  EXPECT_EQ(h.find_backend(7), &h.backend_for(7));
  // Misses return null and leave the host as it was.
  EXPECT_EQ(h.find_vbd(8), nullptr);
  EXPECT_EQ(h.find_backend(8), nullptr);
  EXPECT_EQ(h.find_vbd(8), nullptr);
  // The creating forms still create on a miss.
  EXPECT_NE(&h.vbd_for(8), &h.vbd_for(7));
  EXPECT_NE(h.find_vbd(8), nullptr);
  EXPECT_EQ(h.find_backend(8), nullptr);
  EXPECT_EQ(&h.backend_for(8).disk(), h.find_vbd(8));
  EXPECT_EQ(h.find_backend(8), &h.backend_for(8));
}

TEST(HostTest, Interconnect) {
  Simulator sim;
  Host a{sim, "a", Geometry::from_mib(16)};
  Host b{sim, "b", Geometry::from_mib(16)};
  EXPECT_FALSE(a.connected_to(b));
  Host::interconnect(a, b);
  EXPECT_TRUE(a.connected_to(b));
  EXPECT_TRUE(b.connected_to(a));
  EXPECT_NO_THROW(a.link_to(b));
  EXPECT_NO_THROW(b.link_to(a));
  Host c{sim, "c", Geometry::from_mib(16)};
  EXPECT_THROW(a.link_to(c), std::out_of_range);
}

class MemoryMigratorTest : public ::testing::Test {
 protected:
  MemoryMigratorTest() : link_{sim_, fast_link()}, stream_{sim_, link_} {}

  static net::LinkParams fast_link() {
    net::LinkParams p;
    p.bandwidth_mibps = 1000.0;
    p.latency = sim::Duration::micros(10);
    return p;
  }

  /// Drain the stream applying pages into `shadow`.
  Task<void> apply_loop(vm::GuestMemory& shadow) {
    for (;;) {
      auto m = co_await stream_.recv();
      if (!m) break;
      if (const auto* pages = m->get_if<core::MemPagesMsg>()) {
        pages->apply_to(shadow);
      } else if (const auto* cpu = m->get_if<core::CpuStateMsg>()) {
        cpu_version_ = cpu->cpu.version;
      }
    }
  }

  Simulator sim_;
  net::Link link_;
  MigStream stream_;
  std::uint64_t cpu_version_ = 0;
};

TEST_F(MemoryMigratorTest, IdleGuestOneIteration) {
  MigrationConfig cfg;
  vm::Domain d{sim_, 1, "vm", 4};  // 4 MiB = 1024 pages
  vm::GuestMemory shadow{4};
  MemoryMigrator mm{sim_, cfg};
  sim_.spawn(apply_loop(shadow));
  MemoryMigrator::PrecopyResult res;
  sim_.spawn([](MemoryMigrator& mm, vm::Domain& d, MigStream& s,
                MemoryMigrator::PrecopyResult& out) -> Task<void> {
    out = co_await mm.precopy(d, s, nullptr);
    s.close();
  }(mm, d, stream_, res));
  sim_.run();
  EXPECT_EQ(res.iterations, 1);
  EXPECT_EQ(res.pages_sent, 1024u);
  EXPECT_GE(res.bytes_sent, 1024u * 4096u);
  EXPECT_TRUE(shadow.content_equals(d.memory()));
}

TEST_F(MemoryMigratorTest, DirtyPagesRetransferred) {
  MigrationConfig cfg;
  cfg.mem_residual_target_pages = 4;
  vm::Domain d{sim_, 1, "vm", 4};
  vm::GuestMemory shadow{4};
  MemoryMigrator mm{sim_, cfg};
  sim_.spawn(apply_loop(shadow));

  // Writer dirties pages while pre-copy runs, then stops.
  bool stop = false;
  sim_.spawn([](Simulator& s, vm::Domain& d, bool& stop) -> Task<void> {
    std::uint64_t p = 0;
    while (!stop) {
      d.touch_memory(p % d.memory().page_count());
      p += 17;
      co_await s.delay(50_us);
    }
  }(sim_, d, stop));

  MemoryMigrator::PrecopyResult res;
  sim_.spawn([](MemoryMigrator& mm, vm::Domain& d, MigStream& s,
                MemoryMigrator::PrecopyResult& out, bool& stop) -> Task<void> {
    out = co_await mm.precopy(d, s, nullptr);
    stop = true;
    // Simulate the freeze: writer stopped; send residual.
    d.suspend();
    co_await mm.send_residual(d, s);
    s.close();
  }(mm, d, stream_, res, stop));
  sim_.run();
  EXPECT_GT(res.iterations, 1);
  EXPECT_GT(res.pages_sent, 1024u);  // some pages sent twice
  EXPECT_TRUE(shadow.content_equals(d.memory()));
  EXPECT_GE(cpu_version_, d.cpu().version);
}

TEST_F(MemoryMigratorTest, ResidualCoversFinalDirt) {
  MigrationConfig cfg;
  vm::Domain d{sim_, 1, "vm", 1};
  vm::GuestMemory shadow{1};
  MemoryMigrator mm{sim_, cfg};
  sim_.spawn(apply_loop(shadow));
  sim_.spawn([](MemoryMigrator& mm, vm::Domain& d, MigStream& s) -> Task<void> {
    co_await mm.precopy(d, s, nullptr);
    // Dirty two pages after pre-copy, then freeze.
    d.touch_memory(1);
    d.touch_memory(2);
    d.suspend();
    const auto res = co_await mm.send_residual(d, s);
    EXPECT_EQ(res.pages, 2u);
    s.close();
  }(mm, d, stream_));
  sim_.run();
  EXPECT_TRUE(shadow.content_equals(d.memory()));
  EXPECT_FALSE(d.memory().dirty_log_enabled());
}

TEST_F(MemoryMigratorTest, DirtyRateAbortFires) {
  MigrationConfig cfg;
  cfg.mem_max_iterations = 10;
  cfg.mem_residual_target_pages = 1;
  cfg.mem_dirty_rate_abort_ratio = 0.5;
  vm::Domain d{sim_, 1, "vm", 1};  // 256 pages
  vm::GuestMemory shadow{1};
  MemoryMigrator mm{sim_, cfg};
  sim_.spawn(apply_loop(shadow));

  // Hammer every page continuously: the dirty set can never shrink.
  bool stop = false;
  sim_.spawn([](Simulator& s, vm::Domain& d, bool& stop) -> Task<void> {
    while (!stop) {
      for (std::uint64_t p = 0; p < d.memory().page_count(); ++p) {
        d.touch_memory(p);
      }
      co_await s.delay(10_us);
    }
  }(sim_, d, stop));

  MemoryMigrator::PrecopyResult res;
  sim_.spawn([](MemoryMigrator& mm, vm::Domain& d, MigStream& s,
                MemoryMigrator::PrecopyResult& out, bool& stop) -> Task<void> {
    out = co_await mm.precopy(d, s, nullptr);
    stop = true;
    s.close();
  }(mm, d, stream_, res, stop));
  sim_.run();
  EXPECT_TRUE(res.aborted_dirty_rate);
  EXPECT_LT(res.iterations, 10);
}

/// Pages per expected chunk: full chunks, then the remainder.
std::vector<std::uint64_t> chunk_sizes(std::uint64_t total,
                                       std::uint64_t chunk) {
  std::vector<std::uint64_t> out(total / chunk, chunk);
  if (total % chunk != 0) out.push_back(total % chunk);
  return out;
}

// Run-encoded rounds keep the parent's message boundaries: every chunk of a
// round holds exactly mem_chunk_pages pages but the last, however the
// dirty set breaks into runs.
TEST(MemoryMigratorChunkTest, ChunksHoldExactlyTheConfiguredPages) {
  for (const std::uint32_t chunk : {1u, 7u, 64u, 100u, 300u}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    Simulator sim;
    net::LinkParams lp;
    lp.bandwidth_mibps = 1000.0;
    lp.latency = sim::Duration::micros(10);
    net::Link link{sim, lp};
    MigStream stream{sim, link};
    MigrationConfig cfg;
    cfg.mem_chunk_pages = chunk;
    vm::Domain d{sim, 1, "vm", 1};  // 256 pages
    for (vm::PageId p = 0; p < 256; p += 3) d.touch_memory(p);
    vm::GuestMemory shadow{1};
    std::vector<std::uint64_t> sizes;
    sim.spawn([](MigStream& s, vm::GuestMemory& shadow,
                 std::vector<std::uint64_t>& sizes) -> Task<void> {
      while (auto m = co_await s.recv()) {
        if (const auto* pages = m->get_if<core::MemPagesMsg>()) {
          sizes.push_back(pages->pages);
          pages->apply_to(shadow);
        }
      }
    }(stream, shadow, sizes));
    MemoryMigrator mm{sim, cfg};
    std::uint64_t residual = 0;
    sim.spawn([](MemoryMigrator& mm, vm::Domain& d, MigStream& s,
                 std::uint64_t& residual) -> Task<void> {
      co_await mm.send_all_pages(d, s, nullptr, nullptr);
      d.memory().enable_dirty_log();
      for (vm::PageId p : {5, 6, 7, 9}) d.touch_memory(p);
      for (vm::PageId p = 100; p < 231; p += 1 + p % 3) d.touch_memory(p);
      d.suspend();
      residual = (co_await mm.send_residual(d, s)).pages;
      s.close();
    }(mm, d, stream, residual));
    sim.run();
    std::vector<std::uint64_t> want = chunk_sizes(256, chunk);
    for (const std::uint64_t n : chunk_sizes(residual, chunk)) {
      want.push_back(n);
    }
    EXPECT_GT(residual, 50u);
    EXPECT_EQ(sizes, want);
    EXPECT_TRUE(shadow.content_equals(d.memory()));
  }
}

}  // namespace
}  // namespace vmig::hv

#include <gtest/gtest.h>

#include "core/tpm.hpp"
#include "scenario/testbed.hpp"
#include "workloads/streaming.hpp"
#include "workloads/web_server.hpp"

namespace vmig::scenario {
namespace {

using sim::Simulator;
using namespace vmig::sim::literals;

TEST(TestbedTest, ConstructionMatchesPaperEnvironment) {
  Simulator sim;
  Testbed tb{sim};
  EXPECT_EQ(tb.config().vbd_mib, 39070u);
  EXPECT_EQ(tb.config().guest_mem_mib, 512u);
  EXPECT_EQ(tb.vm().memory().page_count(), 131072u);
  EXPECT_EQ(tb.source().disk().geometry().total_mib(), 39070.0);
  EXPECT_TRUE(tb.source().hosts_domain(tb.vm()));
  EXPECT_TRUE(tb.source().connected_to(tb.dest()));
  EXPECT_TRUE(tb.dest().connected_to(tb.source()));
}

TEST(TestbedTest, PrefillPopulatesEveryBlock) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 64;
  Testbed tb{sim, cfg};
  tb.prefill_disk();
  const auto& d = tb.source().disk();
  for (storage::BlockId b = 0; b < d.geometry().block_count; b += 997) {
    EXPECT_NE(d.token(b), storage::kZeroBlockToken);
  }
}

TEST(TestbedTest, IdleMigrationMatchesPaperShape) {
  // The calibration anchor: an idle guest's whole-system migration lands
  // near the paper's ~796 s / ~60 ms / ~39 GB (Table I).
  Simulator sim;
  Testbed tb{sim};
  tb.prefill_disk();
  const auto rep = tb.run_tpm(nullptr, 10_s, 10_s, tb.paper_migration_config());
  EXPECT_TRUE(rep.disk_consistent);
  EXPECT_TRUE(rep.memory_consistent);
  EXPECT_NEAR(rep.total_time().to_seconds(), 796.0, 80.0);
  EXPECT_NEAR(rep.downtime().to_millis(), 60.0, 30.0);
  EXPECT_NEAR(rep.total_mib(), 39070.0 + 512.0, 400.0);
  EXPECT_TRUE(tb.dest().hosts_domain(tb.vm()));
}

// Host memory follows the pages written, not the disk size: the paper's
// 39070 MiB image is one affine rule per page until a write breaks it.
TEST(TestbedTest, PaperScalePrefillMaterializesNoPages) {
  Simulator sim;
  Testbed tb{sim};
  tb.prefill_disk();
  const auto& d = tb.source().disk();
  EXPECT_EQ(d.pages_materialized(), 0u);
  EXPECT_EQ(tb.dest().disk().pages_materialized(), 0u);
  EXPECT_EQ(d.token(d.geometry().block_count - 1),
            0x5000000000000000ull + d.geometry().block_count - 1);
}

// The first pass ships page-aligned 256-block chunks of affine content, so
// the destination installs rules too; an idle guest breaks none of them.
TEST(TestbedTest, IdleTpmMaterializesNoPages) {
  Simulator sim;
  Testbed tb{sim};
  tb.prefill_disk();
  const auto rep = tb.run_tpm(nullptr, 10_s, 10_s, tb.paper_migration_config());
  EXPECT_TRUE(rep.disk_consistent);
  EXPECT_EQ(rep.blocks_first_pass, tb.source().disk().geometry().block_count);
  EXPECT_EQ(tb.source().disk().pages_materialized(), 0u);
  EXPECT_EQ(tb.dest().disk().pages_materialized(), 0u);
  EXPECT_TRUE(tb.dest().disk().content_equals(tb.source().disk()));
}

// A zero page stays zero across a migration: on a half-prefilled disk the
// destination materializes only the pages that are explicit at the source.
TEST(TestbedTest, TpmKeepsZeroPagesZero) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 64;
  Testbed tb{sim, cfg};
  storage::VirtualDisk& src = tb.source().disk();
  const auto half =
      static_cast<std::uint32_t>(src.geometry().block_count / 2 + 100);
  src.poke_affine({0, half}, 0x5000000000000000ull);
  ASSERT_EQ(src.pages_materialized(), 1u);  // the page `half` splits
  const auto rep = tb.run_tpm(nullptr, 1_s, 1_s, tb.paper_migration_config());
  EXPECT_TRUE(rep.disk_consistent);
  EXPECT_TRUE(tb.dest().disk().content_equals(src));
  EXPECT_EQ(tb.dest().disk().pages_materialized(), src.pages_materialized());
}

// Memory that was never written travels as bare runs: after an idle
// guest's TPM neither its memory nor the destination's shadow has a version
// array.
TEST(TestbedTest, IdleTpmAllocatesNoVersionArrays) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 64;
  Testbed tb{sim, cfg};
  tb.prefill_disk();
  core::TpmMigration tpm{sim, tb.paper_migration_config(), tb.vm(),
                         tb.source(), tb.dest()};
  core::MigrationReport rep;
  sim.spawn([](core::TpmMigration& t,
               core::MigrationReport& out) -> sim::Task<void> {
    out = co_await t.run();
  }(tpm, rep));
  sim.run();
  EXPECT_TRUE(rep.memory_consistent);
  EXPECT_TRUE(rep.disk_consistent);
  EXPECT_TRUE(tb.dest().hosts_domain(tb.vm()));
  EXPECT_FALSE(tb.vm().memory().has_versions());
  EXPECT_FALSE(tpm.shadow_memory().has_versions());
}

// The shadow reserves its version array when the engine is built (under
// the caller's setup scope), so applying written rounds allocates nothing.
TEST(TestbedTest, ShadowReservesVersionsOnlyForWrittenMemory) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 64;
  Testbed tb{sim, cfg};
  const core::TpmMigration idle{sim, tb.paper_migration_config(), tb.vm(),
                                tb.source(), tb.dest()};
  EXPECT_FALSE(idle.shadow_memory().has_versions());
  tb.vm().touch_memory(3);
  const core::TpmMigration written{sim, tb.paper_migration_config(), tb.vm(),
                                   tb.source(), tb.dest()};
  EXPECT_TRUE(written.shadow_memory().has_versions());
}

TEST(TestbedTest, SmallDiskRunsFast) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 256;
  Testbed tb{sim, cfg};
  const auto rep = tb.run_tpm(nullptr, 1_s, 1_s, tb.paper_migration_config());
  EXPECT_TRUE(rep.disk_consistent);
  EXPECT_LT(rep.total_time().to_seconds(), 20.0);
}

TEST(TestbedTest, RunTpmWithWorkloadDrainsCleanly) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 512;
  Testbed tb{sim, cfg};
  workload::StreamingWorkload stream{sim, tb.vm(), 3};
  const auto rep = tb.run_tpm(&stream, 5_s, 5_s, tb.paper_migration_config());
  EXPECT_TRUE(rep.disk_consistent);
  EXPECT_TRUE(rep.memory_consistent);
  EXPECT_TRUE(stream.finished());
  EXPECT_GT(stream.chunks_streamed(), 0u);
  EXPECT_FALSE(sim.has_pending());
}

TEST(TestbedTest, TpmThenImReturnsTwoReports) {
  Simulator sim;
  TestbedConfig cfg;
  cfg.vbd_mib = 512;
  Testbed tb{sim, cfg};
  workload::WebServerWorkload web{sim, tb.vm(), 5};
  const auto [primary, incremental] =
      tb.run_tpm_then_im(&web, 5_s, 30_s, 5_s, tb.paper_migration_config());
  EXPECT_FALSE(primary.incremental);
  EXPECT_TRUE(incremental.incremental);
  EXPECT_TRUE(primary.disk_consistent);
  EXPECT_TRUE(incremental.disk_consistent);
  EXPECT_TRUE(tb.source().hosts_domain(tb.vm()));  // back home
  // IM shrinks the *disk* transfer to the dirtied delta. (Memory always
  // moves in full, which is why the paper's Table II counts disk data only.)
  const auto disk_bytes = [](const core::MigrationReport& r) {
    return r.bytes_disk_first_pass + r.bytes_disk_retransfer +
           r.bytes_postcopy_push + r.bytes_postcopy_pull;
  };
  EXPECT_LT(disk_bytes(incremental), disk_bytes(primary) / 20);
  EXPECT_LT(incremental.total_time(), primary.total_time() / 2);
}

}  // namespace
}  // namespace vmig::scenario

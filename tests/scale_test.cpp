// Datacenter-scale semantics: lazy instantiation of hosts/VMs/links in
// ClusterTestbed, deterministic least-loaded destination picking, and the
// scale-mode A/B pin of docs/SCALE.md: fast-forward ON vs OFF produces
// byte-identical MigrationReport JSON and flight records (including under
// an injected link fault).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/orchestrator.hpp"
#include "core/report_io.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "scenario/cluster_testbed.hpp"
#include "workloads/steady_writer.hpp"

namespace vmig::scenario {
namespace {

using namespace vmig::sim::literals;

ClusterTestbedConfig fast_cluster(int hosts) {
  ClusterTestbedConfig cfg;
  cfg.hosts = hosts;
  cfg.vbd_mib = 16;
  cfg.guest_mem_mib = 4;
  // Fast hardware keeps these tests in the millisecond range.
  cfg.disk.seq_read_mbps = 800.0;
  cfg.disk.seq_write_mbps = 700.0;
  cfg.disk.seek = 100_us;
  cfg.disk.request_overhead = 5_us;
  cfg.lan.bandwidth_mibps = 1000.0;
  cfg.lan.latency = 50_us;
  return cfg;
}

core::MigrationConfig quick_config() {
  return core::MigrationConfig::build()
      .bitmap(core::BitmapKind::kFlat)
      .disk_iterations(4, 64)
      .done();
}

// ------------------------------------------------------- lazy instantiation

TEST(LazyClusterTest, ColdHostsAndVmsStayUnmaterialized) {
  sim::Simulator sim;
  ClusterTestbed tb{sim, fast_cluster(512)};
  EXPECT_EQ(tb.host_count(), 512u);
  EXPECT_EQ(tb.materialized_host_count(), 0u);

  // Cold registration creates no objects but counts as load.
  for (int h = 0; h < 512; ++h) {
    tb.register_vm("cold" + std::to_string(h), static_cast<std::size_t>(h));
  }
  EXPECT_EQ(tb.vm_count(), 512u);
  EXPECT_EQ(tb.materialized_vm_count(), 0u);
  EXPECT_EQ(tb.materialized_host_count(), 0u);
  EXPECT_EQ(tb.registered_vms_on(7), 1u);

  // Touching a host materializes it alone.
  hv::Host& h3 = tb.host(3);
  EXPECT_EQ(h3.name(), "host3");
  EXPECT_EQ(tb.materialized_host_count(), 1u);
  EXPECT_TRUE(tb.host_materialized(3));
  EXPECT_FALSE(tb.host_materialized(4));

  // Materializing a VM pulls in exactly its host.
  vm::Domain& d = tb.vm(9);
  EXPECT_EQ(d.name(), "cold9");
  EXPECT_TRUE(tb.host(9).hosts_domain(d));
  EXPECT_EQ(tb.materialized_vm_count(), 1u);
  EXPECT_EQ(tb.materialized_host_count(), 2u);

  // The mesh is semantically full between materialized hosts, but the Link
  // object only exists after first traversal.
  hv::Host& h9 = tb.host(9);
  EXPECT_TRUE(h3.connected_to(h9));
  EXPECT_TRUE(h9.connected_to(h3));
  EXPECT_EQ(h3.find_link(h9), nullptr);
  net::Link& l = h3.link_to(h9);
  EXPECT_EQ(h3.find_link(h9), &l);
  EXPECT_EQ(&h3.link_to(h9), &l);  // second lookup reuses it
}

TEST(LazyClusterTest, DomainIdsFollowRegistrationOrderNotTouchOrder) {
  sim::Simulator sim;
  ClusterTestbed tb{sim, fast_cluster(4)};
  const std::size_t a = tb.register_vm("a", 0);
  const std::size_t b = tb.register_vm("b", 1);
  const std::size_t c = tb.register_vm("c", 2);
  // Touch out of order: ids were fixed at registration.
  EXPECT_EQ(tb.vm(c).id(), 3);
  EXPECT_EQ(tb.vm(a).id(), 1);
  EXPECT_EQ(tb.vm(b).id(), 2);
}

TEST(LazyClusterTest, PrefillAppliesAtMaterializationTime) {
  sim::Simulator sim;
  ClusterTestbed tb{sim, fast_cluster(4)};
  vm::Domain& early = tb.add_vm("early", 0);
  const std::size_t late = tb.register_vm("late", 1);
  tb.prefill_disks();

  const auto token = [&](hv::Host& h, vm::Domain& d) {
    return h.vbd_for(d.id()).token(5);
  };
  const std::uint64_t early_tok = token(tb.host(0), early);
  // Materialized after prefill_disks(): stamped on materialization, with
  // the same id-derived tokens an eager prefill would have written.
  vm::Domain& late_d = tb.vm(late);
  const std::uint64_t late_tok = token(tb.host(1), late_d);
  EXPECT_EQ(early_tok, 0x5000000000000000ull + (1ull << 32) + 5);
  EXPECT_EQ(late_tok, 0x5000000000000000ull + (2ull << 32) + 5);
}

TEST(LazyClusterTest, PickDestinationsIsLeastLoadedAndLazy) {
  sim::Simulator sim;
  ClusterTestbed tb{sim, fast_cluster(64)};
  // Load hosts 1..3 so they lose the least-loaded race.
  for (int i = 0; i < 3; ++i) tb.register_vm("r1", 1);
  for (int i = 0; i < 2; ++i) tb.register_vm("r2", 2);
  tb.register_vm("r3", 3);

  const auto picks = tb.pick_destinations(0, 4);
  ASSERT_EQ(picks.size(), 4u);
  // Empty hosts win, ties broken by index ascending; host0 excluded.
  EXPECT_EQ(picks[0]->name(), "host4");
  EXPECT_EQ(picks[1]->name(), "host5");
  EXPECT_EQ(picks[2]->name(), "host6");
  EXPECT_EQ(picks[3]->name(), "host7");
  // Only the picked hosts materialized.
  EXPECT_EQ(tb.materialized_host_count(), 4u);

  // Deterministic: a fresh identical testbed picks the same set.
  sim::Simulator sim2;
  ClusterTestbed tb2{sim2, fast_cluster(64)};
  for (int i = 0; i < 3; ++i) tb2.register_vm("r1", 1);
  for (int i = 0; i < 2; ++i) tb2.register_vm("r2", 2);
  tb2.register_vm("r3", 3);
  const auto picks2 = tb2.pick_destinations(0, 4);
  ASSERT_EQ(picks2.size(), 4u);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    EXPECT_EQ(picks[i]->name(), picks2[i]->name());
  }
}

// --------------------------------------------------------------- A/B harness

struct ScaleRun {
  std::vector<cluster::JobId> order;
  std::vector<std::string> outcomes;     // "<status>/<attempts>"
  std::vector<std::string> report_json;  // core::to_json per job, id order
  std::string flight_jsonl;
  std::string fleet_csv;
  std::uint64_t retries = 0;
  std::uint64_t writer_ticks = 0;  // live ticks actually fired (diagnostic)
  std::uint64_t writer_settles = 0;
  double sim_s = 0;
  bool all_ok = false;
};

/// One evacuation of `vms` steadily-writing guests out of host0 in an
/// N-host lazy mesh, with every knob of the scale machinery parameterized.
/// `with_rollup` attaches a fleet rollup (obs::Rollup) and captures its
/// export.
ScaleRun run_scale(int hosts, int vms, bool fast_forward, bool lazy,
                   bool inject_fault, bool with_rollup = false) {
  sim::Simulator sim;
  sim.set_fast_forward(fast_forward);
  ClusterTestbedConfig bed = fast_cluster(hosts);
  bed.lazy = lazy;
  ClusterTestbed tb{sim, bed};
  for (int i = 0; i < vms; ++i) tb.add_vm("vm" + std::to_string(i), 0);
  // A cold fleet shapes placement but never materializes.
  for (int h = 1; h < hosts; ++h) {
    tb.register_vm("cold" + std::to_string(h), static_cast<std::size_t>(h));
  }
  tb.prefill_disks();

  std::vector<std::unique_ptr<workload::SteadyWriter>> writers;
  for (int i = 0; i < vms; ++i) {
    workload::SteadyWriterConfig wc;
    wc.blocks_per_tick = 16;
    wc.region_blocks = 1024;
    wc.until = sim::TimePoint::origin() + 1_s;
    writers.push_back(std::make_unique<workload::SteadyWriter>(
        sim, tb.vm(static_cast<std::size_t>(i)), wc));
    writers.back()->start();
  }

  obs::FlightRecorder rec;
  auto cfg = quick_config();
  cfg.obs_recorder = &rec;

  std::unique_ptr<obs::Rollup> rollup;
  if (with_rollup) {
    obs::RollupConfig rcfg;
    rcfg.hosts = static_cast<std::size_t>(hosts);
    rcfg.sample_interval = sim::Duration::millis(100);
    rollup = std::make_unique<obs::Rollup>(sim, rcfg);
    tb.attach_rollup(rollup.get());
    rollup->start_sampling();
  }

  cluster::Orchestrator orch{
      sim, tb.manager(),
      {.caps = {.per_source = 4, .per_dest = 2, .per_link = 1},
       .retry = {.max_attempts = 3,
                 .initial_backoff = sim::Duration::millis(20)},
       .rollup = rollup.get()}};
  orch.submit_evacuation(
      tb.host(0),
      tb.pick_destinations(0, std::min<std::size_t>(
                                  static_cast<std::size_t>(hosts) - 1, 8)),
      cfg);
  if (inject_fault) {
    // Chaos window on the busiest path mid-evacuation: jobs in flight
    // abort, back off, and retry — all of it must replay byte-identically.
    auto dests = tb.pick_destinations(0, 1);
    tb.host(0).link_to(*dests[0]).fail_at(sim::TimePoint{} + 4_ms, 8_ms);
  }
  orch.drain();

  ScaleRun r;
  r.order = orch.completion_order();
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    const auto& j = orch.job(static_cast<cluster::JobId>(i));
    r.outcomes.push_back(std::string{core::to_string(j.outcome.status)} + "/" +
                         std::to_string(j.attempts));
    r.report_json.push_back(core::to_json(j.outcome.report));
  }
  std::ostringstream out;
  obs::write_flight_record(out, rec);
  r.flight_jsonl = out.str();
  if (rollup != nullptr) {
    rollup->sample_now();  // terminal fleet state
    r.fleet_csv = rollup->to_csv();
  }
  r.retries = orch.retries();
  for (const auto& w : writers) {
    r.writer_ticks += w->ticks_applied();
    r.writer_settles += w->bulk_settles();
  }
  r.sim_s = sim.now().to_seconds();
  r.all_ok = orch.all_terminal() && orch.jobs_failed() == 0;
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    r.all_ok =
        r.all_ok && orch.job(static_cast<cluster::JobId>(i)).outcome.ok();
  }
  return r;
}

void expect_same_bytes(const ScaleRun& a, const ScaleRun& b) {
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.outcomes, b.outcomes);
  ASSERT_EQ(a.report_json.size(), b.report_json.size());
  for (std::size_t i = 0; i < a.report_json.size(); ++i) {
    EXPECT_EQ(a.report_json[i], b.report_json[i]) << "report " << i;
  }
  EXPECT_EQ(a.flight_jsonl, b.flight_jsonl);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.sim_s, b.sim_s);
}

// ------------------------------------------------- fast-forward A/B pinning

TEST(FastForwardScaleTest, ByteIdenticalReportsAt256Hosts) {
  const ScaleRun ticked = run_scale(256, 16, /*fast_forward=*/false,
                                    /*lazy=*/true, /*inject_fault=*/false);
  const ScaleRun ff = run_scale(256, 16, /*fast_forward=*/true,
                                /*lazy=*/true, /*inject_fault=*/false);
  EXPECT_TRUE(ticked.all_ok);
  EXPECT_TRUE(ff.all_ok);
  // The mode did something: fast-forward folded ticks into bulk settles.
  EXPECT_GT(ticked.writer_ticks, 0u);
  EXPECT_GT(ff.writer_settles, 0u);
  expect_same_bytes(ticked, ff);
}

TEST(FastForwardScaleTest, ByteIdenticalUnderChaosFault) {
  const ScaleRun ticked = run_scale(256, 16, /*fast_forward=*/false,
                                    /*lazy=*/true, /*inject_fault=*/true);
  const ScaleRun ff = run_scale(256, 16, /*fast_forward=*/true,
                                /*lazy=*/true, /*inject_fault=*/true);
  EXPECT_TRUE(ticked.all_ok);
  // The outage must actually bite for the pin to mean anything.
  EXPECT_GT(ticked.retries, 0u);
  expect_same_bytes(ticked, ff);
}

TEST(FastForwardScaleTest, TickedModeReplaysItself) {
  // Control: the harness itself is deterministic run-to-run.
  const ScaleRun a = run_scale(64, 8, false, true, true);
  const ScaleRun b = run_scale(64, 8, false, true, true);
  expect_same_bytes(a, b);
}

// ----------------------------------------------------- lazy/eager identity

TEST(LazyClusterTest, LazyAndEagerRunsAreByteIdentical) {
  const ScaleRun lazy = run_scale(16, 8, /*fast_forward=*/true,
                                  /*lazy=*/true, /*inject_fault=*/true);
  const ScaleRun eager = run_scale(16, 8, /*fast_forward=*/true,
                                   /*lazy=*/false, /*inject_fault=*/true);
  EXPECT_TRUE(lazy.all_ok);
  expect_same_bytes(lazy, eager);
}

// ------------------------------------------------------- fleet rollup pins

TEST(RollupScaleTest, RollupReplaysByteIdentically) {
  const ScaleRun a = run_scale(64, 8, true, true, true, true);
  const ScaleRun b = run_scale(64, 8, true, true, true, true);
  ASSERT_FALSE(a.fleet_csv.empty());
  EXPECT_EQ(a.fleet_csv, b.fleet_csv);
  expect_same_bytes(a, b);
}

TEST(LazyClusterTest, RollupExportLazyEagerIdentical) {
  const ScaleRun lazy = run_scale(16, 8, /*fast_forward=*/true,
                                  /*lazy=*/true, /*inject_fault=*/true,
                                  /*with_rollup=*/true);
  const ScaleRun eager = run_scale(16, 8, /*fast_forward=*/true,
                                   /*lazy=*/false, /*inject_fault=*/true,
                                   /*with_rollup=*/true);
  // Eager registers every host cell up front, lazy on first touch — the
  // untouched cells are zero either way, so the exports match.
  EXPECT_EQ(lazy.fleet_csv, eager.fleet_csv);
}

// -------------------------------------------- link series stay proportional

TEST(LazyClusterTest, LinkSeriesExistOnlyForMaterializedLinks) {
  // A 10k-host lazy mesh holds ~10^8 potential directed links; the registry
  // must only ever see the handful the evacuation traverses (4 instruments
  // per link: bytes, messages, utilization, backlog).
  sim::Simulator sim;
  sim.set_fast_forward(true);
  ClusterTestbed tb{sim, fast_cluster(10000)};
  obs::Registry reg{sim};
  tb.attach_obs(&reg);
  const std::size_t base = reg.instrument_count();  // the sim.* probes
  EXPECT_EQ(base, 3u);

  for (int i = 0; i < 8; ++i) tb.add_vm("vm" + std::to_string(i), 0);
  for (int h = 1; h < 10000; ++h) {
    tb.register_vm("cold" + std::to_string(h), static_cast<std::size_t>(h));
  }
  // Cold registrations shape placement but create no links and no series.
  EXPECT_EQ(reg.instrument_count(), base);
  tb.prefill_disks();

  cluster::Orchestrator orch{
      sim, tb.manager(),
      {.caps = {.per_source = 4, .per_dest = 2, .per_link = 1}}};
  orch.submit_evacuation(tb.host(0), tb.pick_destinations(0, 8),
                         quick_config());
  orch.drain();
  EXPECT_TRUE(orch.all_terminal());
  EXPECT_EQ(orch.jobs_failed(), 0u);

  // Only host0 and its destinations materialized...
  std::vector<std::size_t> mat;
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    if (tb.host_materialized(i)) mat.push_back(i);
  }
  ASSERT_LE(mat.size(), 9u);
  // ...and the instrument count is exactly 4 per link that actually exists
  // between them, not a function of the 10k-host mesh.
  std::size_t links = 0;
  for (const std::size_t a : mat) {
    for (const std::size_t b : mat) {
      if (a != b && tb.host(a).find_link(tb.host(b)) != nullptr) ++links;
    }
  }
  EXPECT_GT(links, 0u);
  EXPECT_EQ(reg.instrument_count(), base + 4 * links);
}

}  // namespace
}  // namespace vmig::scenario

// Self-profiler tests (docs/OBSERVABILITY.md "Self-profiling"):
//   - scope accounting: calls, inclusive/exclusive nesting, event counts;
//   - probes are no-ops while no profiler is active;
//   - collapsed-stack export: path structure in deterministic first-seen
//     order (wall-clock sample values vary run to run by design);
//   - allocation attribution to the innermost open scope;
//   - the determinism contract: profiling ON vs OFF leaves every simulated
//     artifact byte-identical — report JSON, chrome trace, flight record —
//     including a chaos-seeded fault run (profiling must observe, never
//     perturb).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/orchestrator.hpp"
#include "core/migration_manager.hpp"
#include "core/report_io.hpp"
#include "fault/fault_spec.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/tracer.hpp"
#include "scenario/cluster_testbed.hpp"
#include "scenario/testbed.hpp"
#include "simcore/zeroed_array.hpp"
#include "workloads/diabolical.hpp"
#include "workloads/kernel_build.hpp"

namespace vmig {
namespace {

using namespace vmig::sim::literals;
using obs::ProfCategory;
using obs::Profiler;
using obs::ProfScope;

// --------------------------------------------------------- scope accounting

TEST(ProfilerTest, ScopeAccountingCallsEventsAndNesting) {
  Profiler p;
  p.activate();
  {
    ProfScope outer{ProfCategory::kSimDispatch};
    obs::prof_count(ProfCategory::kSimDispatch);
    {
      ProfScope inner{ProfCategory::kBitmapScan};
      obs::prof_count(ProfCategory::kBitmapScan, 128);
    }
    {
      ProfScope inner{ProfCategory::kBitmapScan};
      obs::prof_count(ProfCategory::kBitmapScan, 64);
    }
  }
  Profiler::deactivate();

  const auto& outer = p.stats(ProfCategory::kSimDispatch);
  const auto& inner = p.stats(ProfCategory::kBitmapScan);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(outer.events, 1u);
  EXPECT_EQ(inner.calls, 2u);
  EXPECT_EQ(inner.events, 192u);
  // Exclusive excludes children; inclusive contains them.
  EXPECT_GE(outer.inclusive_ns, outer.exclusive_ns);
  EXPECT_GE(outer.inclusive_ns, inner.inclusive_ns);
  EXPECT_EQ(inner.inclusive_ns, inner.exclusive_ns);  // leaf scopes
  // Only the root scope contributes to the total.
  EXPECT_EQ(p.total_scoped_ns(), outer.inclusive_ns);
  EXPECT_EQ(p.open_scopes(), 0u);
}

TEST(ProfilerTest, ProbesAreNoOpsWithoutAnActiveProfiler) {
  ASSERT_EQ(Profiler::active(), nullptr);
  {
    ProfScope s{ProfCategory::kBitmapMark};
    obs::prof_count(ProfCategory::kBitmapMark, 1000);
  }
  Profiler p;  // never activated
  EXPECT_EQ(p.stats(ProfCategory::kBitmapMark).calls, 0u);
  EXPECT_EQ(p.total_scoped_ns(), 0u);
}

TEST(ProfilerTest, DeactivateStopsCollection) {
  Profiler p;
  p.activate();
  { ProfScope s{ProfCategory::kDiskIteration}; }
  Profiler::deactivate();
  { ProfScope s{ProfCategory::kDiskIteration}; }
  EXPECT_EQ(p.stats(ProfCategory::kDiskIteration).calls, 1u);
}

// ------------------------------------------------------------------ exports

TEST(ProfilerTest, CollapsedStacksFollowFirstSeenPathOrder) {
  Profiler p;
  p.activate();
  {
    ProfScope a{ProfCategory::kSimDispatch};
    { ProfScope b{ProfCategory::kBitmapScan}; }
    { ProfScope c{ProfCategory::kPostCopyPull}; }
    { ProfScope b2{ProfCategory::kBitmapScan}; }  // existing path, no new line
  }
  { ProfScope top{ProfCategory::kOrchestratorTick}; }
  Profiler::deactivate();

  std::istringstream in{p.collapsed()};
  std::vector<std::string> paths;
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    paths.push_back(line.substr(0, sp));
    // The sample value is a plain non-negative integer (nanoseconds).
    EXPECT_NE(line.substr(sp + 1).find_first_of("0123456789"),
              std::string::npos)
        << line;
  }
  const std::vector<std::string> want{
      "sim_dispatch",
      "sim_dispatch;bitmap_scan",
      "sim_dispatch;postcopy_pull",
      "orchestrator_tick",
  };
  EXPECT_EQ(paths, want);
}

TEST(ProfilerTest, FlatMetricsCarryPerCategoryKeys) {
  Profiler p;
  p.activate();
  {
    ProfScope s{ProfCategory::kRecorderEmit};
    obs::prof_count(ProfCategory::kRecorderEmit, 7);
  }
  Profiler::deactivate();

  bool saw_calls = false, saw_events = false, saw_total = false;
  for (const auto& [k, v] : p.flat_metrics()) {
    if (k == "prof.recorder_emit.calls") {
      saw_calls = true;
      EXPECT_EQ(v, 1.0);
    }
    if (k == "prof.recorder_emit.events") {
      saw_events = true;
      EXPECT_EQ(v, 7.0);
    }
    if (k == "prof.total_scoped_ms") saw_total = true;
  }
  EXPECT_TRUE(saw_calls && saw_events && saw_total);
  EXPECT_NE(p.table().find("recorder_emit"), std::string::npos);
}

TEST(ProfilerTest, AllocationsAttributeToInnermostOpenScope) {
  Profiler p;
  p.activate();
  {
    ProfScope s{ProfCategory::kOrchestratorTick};
    std::vector<int> v;
    v.reserve(1024);  // one heap allocation inside the scope
  }
  Profiler::deactivate();
  const auto& in_scope = p.stats(ProfCategory::kOrchestratorTick);
  EXPECT_GE(in_scope.allocs, 1u);
  EXPECT_GE(in_scope.alloc_bytes, 1024u * sizeof(int));
}

TEST(ProfilerTest, ZeroedArraysCountInInnermostOpenScope) {
  Profiler p;
  p.activate();
  std::uint64_t last = 1;
  {
    ProfScope outer{ProfCategory::kOrchestratorTick};
    ProfScope inner{ProfCategory::kSimDispatch};
    // calloc, not operator new: counted by make_zeroed_array itself.
    const auto a = sim::make_zeroed_array<std::uint64_t>(4096);
    last = a[4095];
  }
  Profiler::deactivate();
  EXPECT_EQ(last, 0u);
  const auto& inner = p.stats(ProfCategory::kSimDispatch);
  EXPECT_EQ(inner.allocs, 1u);
  EXPECT_EQ(inner.alloc_bytes, 4096u * sizeof(std::uint64_t));
  EXPECT_EQ(p.stats(ProfCategory::kOrchestratorTick).allocs, 0u);
}

// ----------------------------------------------- determinism A/B (tentpole)

struct Artifacts {
  std::string report_json;
  std::string chrome_trace;
  std::string flight_jsonl;
};

/// One instrumented single-host TPM migration with tracer + flight recorder
/// attached (the `vmig_sim --trace --flight-record` wiring), optionally
/// self-profiled. Returns every serialized artifact.
Artifacts run_instrumented(bool profiled) {
  std::unique_ptr<Profiler> prof;
  if (profiled) {
    prof = std::make_unique<Profiler>();
    prof->activate();
  }

  sim::Simulator sim;
  scenario::TestbedConfig bed;
  bed.vbd_mib = 128;
  bed.guest_mem_mib = 64;
  scenario::Testbed tb{sim, bed};
  tb.prefill_disk();

  obs::Tracer tracer{sim};
  obs::FlightRecorder rec;
  auto cfg = tb.paper_migration_config();
  cfg.obs_tracer = &tracer;
  cfg.obs_recorder = &rec;

  workload::KernelBuildWorkload wl{sim, tb.vm(), 42};
  const core::MigrationReport rep = tb.run_tpm(
      &wl, sim::Duration::seconds(2), sim::Duration::seconds(2), cfg);

  Artifacts a;
  a.report_json = core::to_json(rep);
  a.chrome_trace = obs::chrome_trace_json(tracer);
  std::ostringstream out;
  obs::write_flight_record(out, rec);
  a.flight_jsonl = out.str();

  if (profiled) {
    Profiler::deactivate();
    // The run must actually have been observed, or the A/B proves nothing.
    EXPECT_GT(prof->stats(ProfCategory::kSimDispatch).calls, 0u);
    EXPECT_GT(prof->stats(ProfCategory::kBitmapScan).events, 0u);
    EXPECT_GT(prof->total_scoped_ns(), 0u);
  }
  return a;
}

TEST(ProfilerDeterminism, ProfilingLeavesAllArtifactsByteIdentical) {
  const Artifacts off = run_instrumented(false);
  const Artifacts on = run_instrumented(true);
  EXPECT_EQ(off.report_json, on.report_json);
  EXPECT_EQ(off.chrome_trace, on.chrome_trace);
  EXPECT_EQ(off.flight_jsonl, on.flight_jsonl);
  EXPECT_FALSE(off.report_json.empty());
  EXPECT_FALSE(off.chrome_trace.empty());
  EXPECT_FALSE(off.flight_jsonl.empty());
}

/// Chaos seed 3 (the fault-matrix shape flight_recorder_test replays): a
/// full evacuation under a mixed fault schedule with aborts, retries and
/// resumes — the harshest path the profiler's probes sit on.
std::string run_chaos(bool profiled, std::uint64_t seed) {
  std::unique_ptr<Profiler> prof;
  if (profiled) {
    prof = std::make_unique<Profiler>();
    prof->activate();
  }

  sim::Simulator sim;
  scenario::ClusterTestbedConfig bed;
  bed.hosts = 3;
  bed.vbd_mib = 16;
  bed.guest_mem_mib = 4;
  bed.disk.seq_read_mbps = 800.0;
  bed.disk.seq_write_mbps = 700.0;
  bed.disk.seek = 100_us;
  bed.disk.request_overhead = 5_us;
  bed.lan.bandwidth_mibps = 1000.0;
  bed.lan.latency = 50_us;
  scenario::ClusterTestbed tb{sim, bed};
  std::vector<std::unique_ptr<workload::DiabolicalWorkload>> wls;
  for (int i = 0; i < 4; ++i) {
    vm::Domain& d = tb.add_vm("vm" + std::to_string(i), 0);
    wls.push_back(std::make_unique<workload::DiabolicalWorkload>(
        sim, d, seed * 100 + static_cast<std::uint64_t>(i)));
  }
  tb.prefill_disks();

  fault::FaultInjector inj{
      sim,
      fault::FaultSpec::parse("outage@4ms+8ms; loss@0s+60s:0.1; "
                              "degrade@20ms+80ms:0.4; latency@25ms+80ms:1ms"),
      seed};
  inj.arm_path(tb.host(0).link_to(tb.host(1)),
               tb.host(1).link_to(tb.host(0)), "h0-h1");

  auto cfg = core::MigrationConfig::build()
                 .bitmap(core::BitmapKind::kFlat)
                 .disk_iterations(4, 64)
                 .done();
  cfg.postcopy_pull_timeout = 2_ms;
  cfg.postcopy_recovery_interval = 500_us;
  cfg.postcopy_freeze_deadline = 20_ms;

  obs::FlightRecorder rec;
  cluster::Orchestrator orch{
      sim, tb.manager(),
      {.caps = {.per_source = 2, .per_dest = 2, .per_link = 1},
       .retry = {.max_attempts = 5,
                 .initial_backoff = sim::Duration::millis(10)},
       .recorder = &rec}};
  for (auto& wl : wls) wl->start();
  orch.submit_evacuation(tb.host(0), tb.hosts_except(0), cfg);
  sim.spawn([](sim::Simulator* sim, cluster::Orchestrator* orch,
               std::vector<std::unique_ptr<workload::DiabolicalWorkload>>* wls)
                -> sim::Task<void> {
    while (!orch->all_terminal()) co_await sim->delay(1_ms);
    for (auto& wl : *wls) wl->request_stop();
  }(&sim, &orch, &wls));
  orch.drain();
  EXPECT_TRUE(orch.all_terminal());

  if (profiled) Profiler::deactivate();
  std::ostringstream out;
  obs::write_flight_record(out, rec);
  return out.str();
}

TEST(ProfilerDeterminism, ChaosSeededFaultRunIsByteIdenticalUnderProfiling) {
  const std::string off = run_chaos(false, 3);
  const std::string on = run_chaos(true, 3);
  EXPECT_EQ(off, on);
  // The run exercised real fault paths, not a quiet migration.
  EXPECT_NE(off.find("\"status\":\"completed\""), std::string::npos);
}

// ------------------------------------------- zero-alloc steady state

// Tentpole acceptance: once the pools are warm, the simulator dispatch loop
// and the post-copy pull path allocate nothing. The first evacuation grows
// every arena/ring/freelist to its high-water mark; the evacuation back must
// then run allocation-free in the hot categories (per-migration setup is
// control-plane work, explicitly scoped kOther at its sites).
TEST(ProfilerSteadyState, SecondEvacuationAllocatesNothingInHotCategories) {
  Profiler prof;
  prof.activate();

  sim::Simulator sim;
  scenario::ClusterTestbedConfig bed;
  bed.hosts = 3;
  bed.vbd_mib = 16;
  bed.guest_mem_mib = 4;
  bed.disk.seq_read_mbps = 800.0;
  bed.disk.seq_write_mbps = 700.0;
  bed.disk.seek = 100_us;
  bed.disk.request_overhead = 5_us;
  bed.lan.bandwidth_mibps = 1000.0;
  bed.lan.latency = 50_us;
  scenario::ClusterTestbed tb{sim, bed};
  std::vector<std::unique_ptr<workload::DiabolicalWorkload>> wls;
  for (int i = 0; i < 2; ++i) {
    vm::Domain& d = tb.add_vm("vm" + std::to_string(i), 0);
    wls.push_back(
        std::make_unique<workload::DiabolicalWorkload>(sim, d, 700 + i));
  }
  tb.prefill_disks();

  auto cfg = core::MigrationConfig::build()
                 .bitmap(core::BitmapKind::kThreeLevel)
                 .disk_iterations(4, 64)
                 .done();
  cfg.postcopy_pull_timeout = 2_ms;
  cfg.postcopy_recovery_interval = 500_us;
  cfg.postcopy_freeze_deadline = 20_ms;

  obs::FlightRecorder rec;
  cluster::Orchestrator orch{
      sim, tb.manager(),
      {.caps = {.per_source = 2, .per_dest = 2, .per_link = 1},
       .retry = {.max_attempts = 5,
                 .initial_backoff = sim::Duration::millis(10)},
       .recorder = &rec}};
  for (auto& wl : wls) wl->start();

  // The workloads never let the event queue go idle, so instead of drain()
  // we time-slice run_for() until the orchestrator reports terminal.
  const auto drive = [&] {
    sim.spawn(orch.run());
    while (!orch.all_terminal()) sim.run_for(1_ms);
  };

  // Warm-up: evacuate host 0; pools, rings and arenas reach their
  // high-water marks (and allocate freely while doing so).
  orch.submit_evacuation(tb.host(0), tb.hosts_except(0), cfg);
  drive();
  ASSERT_TRUE(orch.all_terminal());
  ASSERT_GT(orch.jobs_completed(), 0u);

  const auto& dispatch = prof.stats(ProfCategory::kSimDispatch);
  const auto& pull = prof.stats(ProfCategory::kPostCopyPull);
  const std::uint64_t dispatch_allocs0 = dispatch.allocs;
  const std::uint64_t pull_allocs0 = pull.allocs;
  const std::uint64_t pull_calls0 = pull.calls;
  const std::uint64_t jobs0 = orch.jobs_completed();

  // Steady state: evacuate everything back onto host 0.
  orch.submit_evacuation(tb.host(1), {&tb.host(0)}, cfg);
  orch.submit_evacuation(tb.host(2), {&tb.host(0)}, cfg);
  drive();
  ASSERT_TRUE(orch.all_terminal());
  EXPECT_GT(orch.jobs_completed(), jobs0);

  for (auto& wl : wls) wl->request_stop();
  sim.run();
  Profiler::deactivate();

  // The second evacuation really did run hot-path work...
  EXPECT_GT(dispatch.calls, 0u);
  EXPECT_GT(pull.calls, pull_calls0);
  // ...and allocated nothing on either hot path.
  EXPECT_EQ(dispatch.allocs - dispatch_allocs0, 0u);
  EXPECT_EQ(pull.allocs - pull_allocs0, 0u);
}

}  // namespace
}  // namespace vmig

// Cluster orchestrator tests: admission caps, scheduling policies, retry
// with backoff after injected link disruption, deadline expiry, evacuation
// planning, and byte-identical determinism of full evacuation runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/orchestrator.hpp"
#include "core/report_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "scenario/cluster_testbed.hpp"

namespace vmig::cluster {
namespace {

using namespace vmig::sim::literals;

scenario::ClusterTestbedConfig small_cluster(int hosts) {
  scenario::ClusterTestbedConfig cfg;
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

TEST(AdmissionControlTest, CapsEachDimension) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  AdmissionControl ac{{.per_source = 2, .per_dest = 1, .per_link = 1,
                       .total = 3}};
  EXPECT_TRUE(ac.admissible(tb.host(0), tb.host(1)));
  ac.acquire(tb.host(0), tb.host(1));
  // Same link saturated; same dest saturated even over another link.
  EXPECT_FALSE(ac.admissible(tb.host(0), tb.host(1)));
  EXPECT_FALSE(ac.admissible(tb.host(2), tb.host(1)));
  // Same source to another dest still fits (per_source = 2).
  EXPECT_TRUE(ac.admissible(tb.host(0), tb.host(2)));
  ac.acquire(tb.host(0), tb.host(2));
  EXPECT_FALSE(ac.admissible(tb.host(0), tb.host(2)));  // per_source hit
  EXPECT_EQ(ac.inflight(), 2);
  ac.release(tb.host(0), tb.host(1));
  EXPECT_TRUE(ac.admissible(tb.host(2), tb.host(1)));
}

TEST(SchedulerPolicyTest, FifoHonorsPriorityThenSubmission) {
  MigrationJob j0, j1, j2;
  j0.id = 0;
  j1.id = 1;
  j2.id = 2;
  j2.request.priority = 5;
  FifoPolicy fifo;
  std::vector<JobView> views{{&j0, 10, 0, 0}, {&j1, 1, 0, 0}, {&j2, 99, 0, 0}};
  EXPECT_EQ(fifo.pick(views), 2u);  // highest priority
  views.pop_back();
  EXPECT_EQ(fifo.pick(views), 0u);  // then submission order

  SmallestDirtyFirstPolicy sdf;
  std::vector<JobView> equal_prio{{&j0, 10, 0, 0}, {&j1, 1, 0, 0}};
  EXPECT_EQ(sdf.pick(equal_prio), 1u);  // least data to move first
}

TEST(SchedulerPolicyTest, CycleAwareDefersHotJobsAndForcesAfterBudget) {
  MigrationJob hot, cool;
  hot.id = 0;
  cool.id = 1;
  hot.request.config.disk_dirty_rate_abort_ratio = 0.9;
  cool.request.config.disk_dirty_rate_abort_ratio = 0.9;
  WorkloadCycleAwarePolicy pol{3};

  // Hot: dirty rate above 0.9x link rate. Cool: well below.
  const JobView hot_v{&hot, 100, 950.0, 1000.0};
  const JobView cool_v{&cool, 100, 10.0, 1000.0};
  EXPECT_TRUE(WorkloadCycleAwarePolicy::too_hot(hot_v));
  EXPECT_FALSE(WorkloadCycleAwarePolicy::too_hot(cool_v));

  EXPECT_EQ(pol.pick({hot_v, cool_v}), 1u);  // cool wins despite lower rank
  EXPECT_EQ(pol.pick({hot_v}), SchedulerPolicy::kDefer);
  hot.deferrals = 3;  // budget exhausted: forced through
  EXPECT_EQ(pol.pick({hot_v}), 0u);
}

TEST(EvacuationPlannerTest, BalancesByPlannedLoad) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  for (int i = 0; i < 8; ++i) {
    tb.add_vm("vm" + std::to_string(i), 0);
  }
  const auto plan =
      EvacuationPlanner::plan(tb.host(0), {&tb.host(1), &tb.host(2)});
  ASSERT_EQ(plan.size(), 8u);
  int to1 = 0;
  int to2 = 0;
  for (const auto& a : plan) {
    (a.to == &tb.host(1) ? to1 : to2)++;
  }
  EXPECT_EQ(to1, 4);
  EXPECT_EQ(to2, 4);

  // A destination that starts loaded receives fewer evacuees.
  sim::Simulator sim2;
  scenario::ClusterTestbed tb2{sim2, small_cluster(3)};
  for (int i = 0; i < 6; ++i) tb2.add_vm("vm" + std::to_string(i), 0);
  tb2.add_vm("resident0", 1);
  tb2.add_vm("resident1", 1);
  const auto plan2 =
      EvacuationPlanner::plan(tb2.host(0), {&tb2.host(1), &tb2.host(2)});
  int to1b = 0;
  for (const auto& a : plan2) to1b += a.to == &tb2.host(1) ? 1 : 0;
  EXPECT_EQ(to1b, 2);  // host1 ends with 4, host2 with 4
}

TEST(OrchestratorTest, RunsQueueToCompletionUnderCaps) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  std::vector<vm::Domain*> vms;
  for (int i = 0; i < 4; ++i) vms.push_back(&tb.add_vm("vm" + std::to_string(i), 0));
  tb.prefill_disks();

  Orchestrator orch{sim, tb.manager(),
                    {.caps = {.per_source = 1, .per_dest = 1, .per_link = 1}}};
  for (int i = 0; i < 4; ++i) {
    orch.submit({.domain = vms[i], .from = &tb.host(0),
                 .to = &tb.host(1 + i % 2), .config = quick_config()});
  }
  orch.drain();

  EXPECT_TRUE(orch.all_terminal());
  EXPECT_EQ(orch.jobs_completed(), 4u);
  EXPECT_EQ(orch.jobs_failed(), 0u);
  EXPECT_EQ(orch.retries(), 0u);
  // per_source = 1 serializes everything leaving host0.
  EXPECT_EQ(orch.peak_running(), 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(orch.job(i).outcome.ok()) << "job " << i;
    EXPECT_EQ(orch.job(i).attempts, 1);
  }
  // Every guest left host0.
  EXPECT_TRUE(tb.host(0).domains().empty());
}

TEST(OrchestratorTest, PerSourceCapTwoRunsPairsConcurrently) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  std::vector<vm::Domain*> vms;
  for (int i = 0; i < 4; ++i) vms.push_back(&tb.add_vm("vm" + std::to_string(i), 0));
  tb.prefill_disks();

  Orchestrator orch{sim, tb.manager(),
                    {.caps = {.per_source = 2, .per_dest = 1, .per_link = 1}}};
  for (int i = 0; i < 4; ++i) {
    orch.submit({.domain = vms[i], .from = &tb.host(0),
                 .to = &tb.host(1 + i % 2), .config = quick_config()});
  }
  orch.drain();
  EXPECT_EQ(orch.jobs_completed(), 4u);
  EXPECT_EQ(orch.peak_running(), 2);
}

TEST(OrchestratorTest, RetriesAfterLinkDisruptionWithBackoff) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(2)};
  vm::Domain& g = tb.add_vm("g", 0);
  tb.prefill_disks();

  obs::Registry reg{sim};
  Orchestrator orch{sim, tb.manager(),
                    {.retry = {.max_attempts = 3,
                               .initial_backoff = sim::Duration::millis(50)},
                     .registry = &reg}};
  orch.submit({.domain = &g, .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config()});
  // Cut the forward link mid-pre-copy: the engine aborts cleanly, the
  // orchestrator backs off and the second attempt succeeds.
  tb.host(0).link_to(tb.host(1)).fail_at(sim::TimePoint{} + 5_ms, 10_ms);

  orch.drain();
  const MigrationJob& j = orch.job(0);
  EXPECT_EQ(j.state, JobState::kCompleted);
  EXPECT_EQ(j.attempts, 2);
  EXPECT_EQ(orch.retries(), 1u);
  EXPECT_EQ(j.outcome.attempts, 2);
  EXPECT_TRUE(j.outcome.ok());
  EXPECT_EQ(reg.counter("cluster.retries").value(), 1.0);
  EXPECT_EQ(reg.counter("cluster.jobs_completed").value(), 1.0);
}

/// One retried job under a mid-first-pass outage, with metrics attached.
struct ResumeRun {
  std::string report_json;
  std::string metrics_csv;
  double migration_saved = 0.0;
  double cluster_saved = 0.0;
  core::MigrationOutcome outcome;
  int attempts = 0;
};

ResumeRun run_resumed_retry() {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(2)};
  vm::Domain& g = tb.add_vm("g", 0);
  tb.prefill_disks();

  obs::Registry reg{sim, sim::Duration::from_seconds(0.01)};
  tb.attach_obs(&reg);
  reg.start_sampling();

  auto cfg = quick_config();
  cfg.obs_registry = &reg;
  Orchestrator orch{sim, tb.manager(),
                    {.retry = {.max_attempts = 3,
                               .initial_backoff = sim::Duration::millis(50)},
                     .registry = &reg}};
  orch.submit({.domain = &g, .from = &tb.host(0), .to = &tb.host(1),
               .config = cfg});
  // The outage lands after the VBD-prepare handshake (~5 ms) and a few
  // delivered chunks, so the abort leaves resume state the retry can use.
  tb.host(0).link_to(tb.host(1)).fail_at(sim::TimePoint{} + 9_ms, 10_ms);
  orch.drain();

  ResumeRun r;
  const MigrationJob& j = orch.job(0);
  r.outcome = j.outcome;
  r.attempts = j.attempts;
  r.report_json = core::to_json(j.outcome.report);
  r.metrics_csv = core::to_csv(reg);
  r.migration_saved = reg.counter("migration.resumed_blocks_saved").value();
  r.cluster_saved = reg.counter("cluster.resumed_blocks_saved").value();
  return r;
}

TEST(OrchestratorTest, RetryAfterOutageResumesInsteadOfRestarting) {
  const ResumeRun a = run_resumed_retry();

  EXPECT_TRUE(a.outcome.ok());
  EXPECT_EQ(a.attempts, 2);
  // The retry consumed the aborted attempt's transferred bitmap: its first
  // pass skipped every block already on the destination.
  EXPECT_TRUE(a.outcome.report.resume_applied);
  EXPECT_GT(a.outcome.report.resumed_blocks_saved, 0u);
  // The savings surface through both metric layers: the engine-side counter
  // and the orchestrator's per-job aggregate.
  EXPECT_EQ(a.migration_saved,
            static_cast<double>(a.outcome.report.resumed_blocks_saved));
  EXPECT_EQ(a.cluster_saved, a.migration_saved);
  EXPECT_NE(a.metrics_csv.find("migration.resumed_blocks_saved"),
            std::string::npos);
  EXPECT_NE(a.metrics_csv.find("cluster.resumed_blocks_saved"),
            std::string::npos);

  // Byte-identical across identically-seeded runs.
  const ResumeRun b = run_resumed_retry();
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(OrchestratorTest, ExhaustedRetryBudgetFailsJob) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(2)};
  vm::Domain& g = tb.add_vm("g", 0);
  tb.prefill_disks();

  Orchestrator orch{sim, tb.manager(),
                    {.retry = {.max_attempts = 2,
                               .initial_backoff = sim::Duration::millis(1)}}};
  orch.submit({.domain = &g, .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config()});
  // An outage long enough to cover both attempts (1 ms backoff).
  tb.host(0).link_to(tb.host(1)).fail_at(sim::TimePoint{} + 1_ms, 10_s);

  orch.drain();
  const MigrationJob& j = orch.job(0);
  EXPECT_EQ(j.state, JobState::kFailed);
  EXPECT_EQ(j.attempts, 2);
  EXPECT_EQ(j.outcome.status, core::MigrationStatus::kLinkDisrupted);
  EXPECT_EQ(orch.jobs_failed(), 1u);
  EXPECT_EQ(orch.retries(), 1u);
  // The guest never left the source.
  EXPECT_TRUE(tb.host(0).hosts_domain(g));
}

TEST(OrchestratorTest, DeadlineExpiresQueuedJob) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(2)};
  vm::Domain& a = tb.add_vm("a", 0);
  vm::Domain& b = tb.add_vm("b", 0);
  tb.prefill_disks();

  // per_link = 1 queues job b behind job a; b's deadline expires while it
  // waits.
  Orchestrator orch{sim, tb.manager(), {.caps = {.per_link = 1}}};
  orch.submit({.domain = &a, .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config()});
  orch.submit({.domain = &b, .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config(), .deadline = 1_ms});
  orch.drain();

  EXPECT_EQ(orch.job(0).state, JobState::kCompleted);
  EXPECT_EQ(orch.job(1).state, JobState::kFailed);
  EXPECT_EQ(orch.job(1).outcome.status,
            core::MigrationStatus::kDeadlineExpired);
  EXPECT_EQ(orch.job(1).attempts, 0);
  EXPECT_TRUE(tb.host(0).hosts_domain(b));
}

TEST(OrchestratorTest, PriorityJumpsTheQueue) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(2)};
  std::vector<vm::Domain*> vms;
  for (int i = 0; i < 3; ++i) vms.push_back(&tb.add_vm("vm" + std::to_string(i), 0));
  tb.prefill_disks();

  Orchestrator orch{sim, tb.manager(), {.caps = {.per_link = 1}}};
  orch.submit({.domain = vms[0], .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config()});
  orch.submit({.domain = vms[1], .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config()});
  orch.submit({.domain = vms[2], .from = &tb.host(0), .to = &tb.host(1),
               .config = quick_config(), .priority = 10});
  orch.drain();

  // All three are queued when the orchestrator starts, so the priority job
  // launches first and the rest follow in submission order.
  ASSERT_EQ(orch.completion_order().size(), 3u);
  EXPECT_EQ(orch.completion_order()[0], 2u);
  EXPECT_EQ(orch.completion_order()[1], 0u);
  EXPECT_EQ(orch.completion_order()[2], 1u);
}

/// Periodically rewrites a block window, making the domain's dirty rate
/// high until `stop` flips.
sim::Task<void> hot_writer(sim::Simulator* sim, vm::Domain* d,
                           const bool* stop) {
  while (!*stop) {
    co_await d->disk_write(storage::BlockRange{0, 512});
    co_await sim->delay(sim::Duration::millis(1));
  }
}

TEST(OrchestratorTest, CycleAwarePolicyDefersHotVm) {
  sim::Simulator sim;
  // A link slow enough that the hot writer's re-dirty rate can actually
  // exceed 0.9x the link rate (the disk caps dirtying at ~170k blocks/s,
  // so against a GbE-class link nothing ever counts as hot).
  auto cfg_bed = small_cluster(3);
  cfg_bed.lan.bandwidth_mibps = 100.0;
  scenario::ClusterTestbed tb{sim, cfg_bed};
  vm::Domain& hot = tb.add_vm("hot", 0);
  vm::Domain& cool = tb.add_vm("cool", 0);
  tb.prefill_disks();

  bool stop_writer = false;
  sim.spawn(hot_writer(&sim, &hot, &stop_writer));

  Orchestrator orch{sim, tb.manager(),
                    {.caps = {.per_source = 1},
                     .policy = SchedulePolicyKind::kWorkloadCycleAware,
                     .poll_interval = sim::Duration::millis(20),
                     .max_deferrals = 1000}};
  // Submit the hot VM first: FIFO would launch it immediately; the
  // cycle-aware policy must skip it and run the cool VM first.
  const JobId hot_job =
      orch.submit({.domain = &hot, .from = &tb.host(0), .to = &tb.host(1),
                   .config = quick_config()});
  const JobId cool_job =
      orch.submit({.domain = &cool, .from = &tb.host(0), .to = &tb.host(2),
                   .config = quick_config()});

  sim.spawn([](sim::Simulator* s, Orchestrator* o,
               bool* stop) -> sim::Task<void> {
    // Let the sampler observe the hot writer while the orchestrator works;
    // cool the workload down once the cool VM is gone so the hot VM can
    // converge and the run terminates.
    while (o->jobs_completed() < 1) {
      co_await s->delay(sim::Duration::millis(5));
    }
    *stop = true;
  }(&sim, &orch, &stop_writer));
  orch.drain();

  EXPECT_TRUE(orch.all_terminal());
  EXPECT_EQ(orch.jobs_completed(), 2u);
  EXPECT_GT(orch.job(hot_job).deferrals, 0);
  // The cool VM finished first even though it was submitted second.
  ASSERT_EQ(orch.completion_order().size(), 2u);
  EXPECT_EQ(orch.completion_order()[0], cool_job);
  EXPECT_EQ(orch.completion_order()[1], hot_job);
}

/// One full evacuation-under-disruption run, returning everything a
/// determinism check needs to compare byte-for-byte.
struct EvacRun {
  std::vector<JobId> order;
  std::vector<std::string> outcomes;  // "<status>/<attempts>" per job id
  std::string trace_json;
  std::string metrics_csv;
  std::uint64_t retries = 0;
  bool all_ok = false;
};

EvacRun run_evacuation() {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  for (int i = 0; i < 8; ++i) tb.add_vm("vm" + std::to_string(i), 0);
  tb.prefill_disks();

  obs::Registry reg{sim, sim::Duration::from_seconds(0.05)};
  obs::Tracer tracer{sim};
  tb.attach_obs(&reg);
  reg.start_sampling();

  Orchestrator orch{sim, tb.manager(),
                    {.caps = {.per_source = 2, .per_dest = 2, .per_link = 1},
                     .retry = {.max_attempts = 3,
                               .initial_backoff = sim::Duration::millis(20)},
                     .registry = &reg,
                     .tracer = &tracer}};
  orch.submit_evacuation(tb.host(0), tb.hosts_except(0), quick_config());
  // One injected outage on the host0 -> host1 link mid-evacuation.
  tb.host(0).link_to(tb.host(1)).fail_at(sim::TimePoint{} + 4_ms, 8_ms);
  orch.drain();

  EvacRun r;
  r.order = orch.completion_order();
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    const MigrationJob& j = orch.job(static_cast<JobId>(i));
    r.outcomes.push_back(std::string{core::to_string(j.outcome.status)} + "/" +
                         std::to_string(j.attempts));
  }
  r.trace_json = obs::chrome_trace_json(tracer);
  r.metrics_csv = core::to_csv(reg);
  r.retries = orch.retries();
  r.all_ok = orch.all_terminal() && orch.jobs_failed() == 0;
  // Integrity: every evacuated disk matches its source image on arrival.
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    r.all_ok = r.all_ok && orch.job(static_cast<JobId>(i)).outcome.ok();
  }
  return r;
}

TEST(OrchestratorTest, EvacuationUnderDisruptionIsDeterministic) {
  const EvacRun a = run_evacuation();
  const EvacRun b = run_evacuation();

  EXPECT_TRUE(a.all_ok);
  // The outage must actually bite — at least one job retried — and the
  // retry/backoff activity must be visible in the exported metrics.
  EXPECT_GT(a.retries, 0u);
  EXPECT_NE(a.metrics_csv.find("cluster.retries"), std::string::npos);
  EXPECT_NE(a.metrics_csv.find("cluster.jobs_completed"), std::string::npos);
  EXPECT_NE(a.trace_json.find("job_retry_scheduled"), std::string::npos);

  // Byte-identical across identically-seeded runs.
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

/// Everything a cross-commit golden pin compares: completion order, per-job
/// "<status>/<attempts>" in id order, FNV-1a over every job's to_json
/// report, and the retry/deferral totals.
struct GoldenRun {
  std::string order;
  std::string outcomes;
  std::uint64_t reports_fnv = 14695981039346656037ull;
  std::uint64_t retries = 0;
  std::uint64_t deferrals = 0;
};

/// A 16-host evacuation of 24 guests that exercises every scheduling path:
/// hot writers (cycle-aware deferral), raised priorities, deadlines that
/// expire in the queue, and, with `outage`, retries after link failures.
GoldenRun run_golden(SchedulePolicyKind policy, bool outage) {
  sim::Simulator sim;
  auto bed = small_cluster(16);
  bed.vbd_mib = 8;
  // Slow enough that a hot writer's re-dirty rate counts as hot.
  bed.lan.bandwidth_mibps = 100.0;
  scenario::ClusterTestbed tb{sim, bed};
  std::vector<vm::Domain*> vms;
  for (int i = 0; i < 24; ++i) {
    vms.push_back(&tb.add_vm("vm" + std::to_string(i), 0));
  }
  tb.prefill_disks();
  // Guests tracked from the start offer smallest-dirty-first a small first
  // pass; the rest count as a full copy.
  for (int i = 1; i < 24; i += 4) {
    tb.host(0)
        .backend_for(vms[static_cast<std::size_t>(i)]->id())
        .start_write_tracking(core::BitmapKind::kFlat);
  }

  bool stop_writers = false;
  for (int i = 0; i < 24; i += 5) {
    sim.spawn(hot_writer(&sim, vms[static_cast<std::size_t>(i)], &stop_writers));
  }
  bool* stop = &stop_writers;
  sim.schedule_at(sim::TimePoint{} + 2_s, [stop] { *stop = true; });

  Orchestrator orch{sim, tb.manager(),
                    {.caps = {.per_source = 3, .per_dest = 1, .per_link = 1,
                              .total = 6},
                     .retry = {.max_attempts = 4,
                               .initial_backoff = sim::Duration::millis(10)},
                     .policy = policy,
                     .poll_interval = sim::Duration::millis(10),
                     .max_deferrals = 4}};
  std::vector<core::MigrationRequest> reqs = EvacuationPlanner::requests(
      tb.host(0), tb.hosts_except(0), quick_config());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i % 7 == 3) reqs[i].priority = 5;
    if (i % 6 == 4) reqs[i].deadline = sim::Duration::millis(40 + 10 * i);
    orch.submit(std::move(reqs[i]));
  }
  if (outage) {
    for (std::size_t h = 1; h < 16; ++h) {
      const std::int64_t at_ms = 20 + 37 * static_cast<std::int64_t>(h);
      tb.host(0).link_to(tb.host(h)).fail_at(
          sim::TimePoint{} + sim::Duration::millis(at_ms), 25_ms);
    }
  }
  orch.drain();

  GoldenRun r;
  for (const JobId id : orch.completion_order()) {
    r.order += std::to_string(id) + ",";
  }
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    const MigrationJob& j = orch.job(static_cast<JobId>(i));
    r.outcomes += std::string{core::to_string(j.outcome.status)} + "/" +
                  std::to_string(j.attempts) + ",";
    for (const char c : core::to_json(j.outcome.report)) {
      r.reports_fnv ^= static_cast<unsigned char>(c);
      r.reports_fnv *= 1099511628211ull;
    }
  }
  r.retries = orch.retries();
  r.deferrals = orch.deferrals();
  return r;
}

struct GoldenPin {
  SchedulePolicyKind policy;
  bool outage;
  const char* order;
  const char* outcomes;
  std::uint64_t reports_fnv;
  std::uint64_t retries;
  std::uint64_t deferrals;
};

// Recorded before the orchestrator's scheduling-cost rework; any change to
// these values means a policy's decisions changed.
constexpr GoldenPin kGoldenPins[] = {
    {SchedulePolicyKind::kFifo, false,
     "4,16,3,17,22,10,1,2,0,6,5,7,8,9,11,12,13,14,18,19,15,21,23,20,",
     "completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,completed/1,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,",
     10461353721291408540ull, 0, 0},
    {SchedulePolicyKind::kFifo, true,
     "4,16,10,3,17,22,1,0,2,7,5,8,6,9,11,12,13,14,18,19,15,21,23,20,",
     "completed/1,completed/2,completed/2,completed/1,deadline-expired/0,completed/2,completed/2,completed/1,completed/1,completed/1,deadline-expired/1,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,",
     4480096850898007535ull, 5, 0},
    {SchedulePolicyKind::kSmallestDirtyFirst, false,
     "4,10,16,17,1,9,22,13,21,5,3,2,0,6,7,8,11,12,14,18,15,19,23,20,",
     "completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,",
     11110929738418414251ull, 0, 0},
    {SchedulePolicyKind::kSmallestDirtyFirst, true,
     "4,10,16,17,1,22,9,21,13,3,5,0,2,6,7,8,11,12,14,18,19,15,23,20,",
     "completed/1,completed/1,completed/1,completed/2,deadline-expired/0,completed/2,completed/1,completed/1,completed/1,completed/2,deadline-expired/0,completed/1,completed/1,completed/2,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,",
     10758844438299859615ull, 4, 0},
    {SchedulePolicyKind::kWorkloadCycleAware, false,
     "4,10,16,3,17,1,22,6,2,0,7,8,5,9,11,12,13,14,18,19,21,23,20,15,",
     "completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,",
     15397171760428422008ull, 0, 4},
    {SchedulePolicyKind::kWorkloadCycleAware, true,
     "4,10,16,3,17,1,22,6,0,7,8,2,9,11,5,12,13,14,18,19,21,23,15,20,",
     "completed/1,completed/1,completed/2,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,completed/1,completed/1,completed/1,completed/1,deadline-expired/0,completed/1,",
     15474856478948828779ull, 1, 4},
};

TEST(OrchestratorGoldenTest, EvacuationMatchesRecordedPins) {
  for (const GoldenPin& pin : kGoldenPins) {
    SCOPED_TRACE(std::string{make_policy(pin.policy)->name()} +
                 (pin.outage ? " with outage" : " without outage"));
    const GoldenRun r = run_golden(pin.policy, pin.outage);
    EXPECT_EQ(r.order, pin.order);
    EXPECT_EQ(r.outcomes, pin.outcomes);
    EXPECT_EQ(r.reports_fnv, pin.reports_fnv);
    EXPECT_EQ(r.retries, pin.retries);
    EXPECT_EQ(r.deferrals, pin.deferrals);
  }
}

TEST(OrchestratorTest, SubmitValidatesRequest) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(2)};
  vm::Domain& g = tb.add_vm("g", 0);
  Orchestrator orch{sim, tb.manager(), {}};
  EXPECT_THROW(orch.submit({.domain = nullptr, .from = &tb.host(0),
                            .to = &tb.host(1)}),
               std::invalid_argument);
  EXPECT_THROW(orch.submit({.domain = &g, .from = &tb.host(0),
                            .to = &tb.host(0)}),
               std::invalid_argument);
}

/// The rejection reason of `submit(req)`, or nullopt if it was accepted.
std::optional<SubmitRejection> rejection(Orchestrator& orch,
                                         core::MigrationRequest req) {
  try {
    orch.submit(std::move(req));
  } catch (const SubmitError& e) {
    return e.reason();
  }
  return std::nullopt;
}

TEST(OrchestratorTest, SubmitRejectionsCarryTheirReason) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  vm::Domain& g = tb.add_vm("g", 0);
  tb.prefill_disks();
  // A host outside the testbed's mesh.
  hv::Host island{sim, "island", tb.host(0).disk().geometry()};
  Orchestrator orch{sim, tb.manager(), {}};

  EXPECT_EQ(rejection(orch, {.domain = nullptr, .from = &tb.host(0),
                             .to = &tb.host(1)}),
            SubmitRejection::kNullArgument);
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(0),
                             .to = &tb.host(0)}),
            SubmitRejection::kSameHost);
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(0),
                             .to = &island}),
            SubmitRejection::kNotConnected);
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(1),
                             .to = &tb.host(2)}),
            SubmitRejection::kNotOnSource);
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(0),
                             .to = &tb.host(1), .config = quick_config()}),
            std::nullopt);
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(0),
                             .to = &tb.host(2), .config = quick_config()}),
            SubmitRejection::kDuplicateDomain);
  EXPECT_STREQ(to_string(SubmitRejection::kDuplicateDomain),
               "duplicate-domain");
  EXPECT_EQ(orch.job_count(), 1u);

  // Once its job is terminal the domain may move again, from where it now
  // lives.
  orch.drain();
  ASSERT_TRUE(orch.job(0).outcome.ok());
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(1),
                             .to = &tb.host(2), .config = quick_config()}),
            std::nullopt);
  orch.drain();
  EXPECT_EQ(orch.jobs_completed(), 2u);
  EXPECT_TRUE(tb.host(2).hosts_domain(g));
}

TEST(OrchestratorTest, WrongSourceIsRejectedNotMigrated) {
  sim::Simulator sim;
  scenario::ClusterTestbed tb{sim, small_cluster(3)};
  vm::Domain& g = tb.add_vm("g", 0);
  tb.prefill_disks();
  Orchestrator orch{sim, tb.manager(), {}};
  // Without the check this request "completed": host1 created an empty VBD
  // for g, its 4096 blocks were copied to host2, and g ended up listed on
  // both host0 and host2.
  EXPECT_EQ(rejection(orch, {.domain = &g, .from = &tb.host(1),
                             .to = &tb.host(2), .config = quick_config()}),
            SubmitRejection::kNotOnSource);
  orch.drain();
  EXPECT_EQ(orch.job_count(), 0u);
  EXPECT_TRUE(tb.host(0).hosts_domain(g));
  EXPECT_FALSE(tb.host(1).hosts_domain(g));
  EXPECT_FALSE(tb.host(2).hosts_domain(g));
  // The rejected request created nothing on the wrong source.
  EXPECT_EQ(tb.host(1).find_vbd(g.id()), nullptr);
  EXPECT_EQ(tb.host(1).find_backend(g.id()), nullptr);
}

/// Job records a FIFO evacuation of `guests` guests makes the scheduler
/// touch.
std::uint64_t fifo_evacuation_visits(int guests) {
  sim::Simulator sim;
  auto bed = small_cluster(17);
  bed.vbd_mib = 1;
  bed.guest_mem_mib = 1;
  scenario::ClusterTestbed tb{sim, bed};
  for (int i = 0; i < guests; ++i) tb.add_vm("vm" + std::to_string(i), 0);
  tb.prefill_disks();
  Orchestrator orch{sim, tb.manager(),
                    {.caps = {.per_source = 4, .per_dest = 2, .per_link = 1,
                              .total = 16}}};
  orch.submit_evacuation(tb.host(0), tb.hosts_except(0), quick_config());
  orch.drain();
  EXPECT_EQ(orch.jobs_completed(), static_cast<std::uint64_t>(guests));
  return orch.jobs_visited();
}

TEST(OrchestratorTest, SchedulingWorkGrowsLinearlyWithJobs) {
  const std::uint64_t n = fifo_evacuation_visits(64);
  const std::uint64_t n2 = fifo_evacuation_visits(128);
  EXPECT_GT(n, 0u);
  // A pass visits the jobs that changed plus each open source's queue
  // head, so doubling the jobs about doubles the work. A scan over every
  // job per pass would quadruple it.
  EXPECT_LE(static_cast<double>(n2), 2.2 * static_cast<double>(n))
      << "visits(64) = " << n << ", visits(128) = " << n2;
}

TEST(RetryPolicyTest, ExponentialBackoffIsCapped) {
  RetryPolicy p{.max_attempts = 5,
                .initial_backoff = sim::Duration::seconds(2),
                .multiplier = 2.0,
                .max_backoff = sim::Duration::seconds(5)};
  EXPECT_EQ(p.backoff_after(1), sim::Duration::seconds(2));
  EXPECT_EQ(p.backoff_after(2), sim::Duration::seconds(4));
  EXPECT_EQ(p.backoff_after(3), sim::Duration::seconds(5));  // capped
  EXPECT_EQ(p.backoff_after(10), sim::Duration::seconds(5));
}

}  // namespace
}  // namespace vmig::cluster

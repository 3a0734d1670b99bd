// Fleet telemetry: the obs::Rollup aggregation tree (VM -> host -> rack ->
// fleet) with bounded exports, the byte-budgeted flight recorder whose
// exact aggregates survive sampling, the vmig_top renderer, and the
// `vmig_analyze --fleet` reconciliation path — driven in-process through
// vmig_top_core / vmig_analyze_core like the other tool tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "cluster/orchestrator.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "scenario/cluster_testbed.hpp"
#include "top.hpp"
#include "workloads/steady_writer.hpp"

namespace vmig {
namespace {

using namespace vmig::sim::literals;

// ------------------------------------------------------------ rollup folds

/// Synthetic fleet: four "hosts" (identity only — the rollup keys cells by
/// pointer, never dereferencing) across racks 0, 1 and 7 of a 64-host /
/// 8-per-rack layout.
struct FleetFixture {
  sim::Simulator sim;
  obs::Rollup rollup;
  int ids[4] = {};
  FleetFixture()
      : rollup{sim, obs::RollupConfig{.hosts = 64,
                                      .hosts_per_rack = 8,
                                      .top_k = 2}} {
    rollup.register_host(&ids[0], 0);
    rollup.register_host(&ids[1], 1);
    rollup.register_host(&ids[2], 8);
    rollup.register_host(&ids[3], 63);
  }
};

TEST(RollupTest, FoldsJobsIntoFleetRackAndHotRows) {
  FleetFixture f;
  obs::Rollup& ru = f.rollup;
  ru.job_submitted();
  ru.job_submitted();
  ru.job_submitted();

  ru.attempt_started(&f.ids[0], &f.ids[2]);
  ru.attempt_finished(&f.ids[0], &f.ids[2]);
  ru.job_terminal(&f.ids[0], &f.ids[2],
                  {.completed = true,
                   .slo_miss = false,
                   .bytes = 1000,
                   .downtime_ns = 5,
                   .dirty_blocks = 7});
  ru.job_retry(&f.ids[1]);
  ru.deferral();
  ru.job_terminal(&f.ids[1], &f.ids[3],
                  {.completed = false,
                   .slo_miss = true,
                   .bytes = 1000000007,
                   .downtime_ns = 95,
                   .dirty_blocks = 70});
  ru.sample_now();
  const std::string csv = ru.to_csv();

  EXPECT_EQ(csv.find("t_seconds,metric,value\n"), 0u);
  // Fleet totals: exact integers, pending = submitted - terminal - running.
  EXPECT_NE(csv.find("0.000000,fleet.jobs_submitted,3\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.jobs_running,0\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.jobs_completed,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.jobs_failed,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.jobs_pending,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.retries,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.deferrals,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.slo_miss,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.bytes_total,1000001007\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.downtime_ns_total,100\n"), std::string::npos);
  EXPECT_NE(csv.find(",fleet.dirty_blocks_total,77\n"), std::string::npos);
  // Rack fold: sources attribute bytes_out, destinations bytes_in; only
  // the three active racks of the eight export rows.
  EXPECT_NE(csv.find(",rack0.bytes_out,1000001007\n"), std::string::npos);
  EXPECT_NE(csv.find(",rack1.bytes_in,1000\n"), std::string::npos);
  EXPECT_NE(csv.find(",rack7.bytes_in,1000000007\n"), std::string::npos);
  EXPECT_EQ(csv.find(",rack2."), std::string::npos);
  EXPECT_EQ(csv.find(",rack3."), std::string::npos);
  // Hot hosts by dirty churn: value desc, k from 1.
  EXPECT_NE(csv.find(",hot_dirty1.host,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",hot_dirty1.blocks,70\n"), std::string::npos);
  EXPECT_NE(csv.find(",hot_dirty2.host,0\n"), std::string::npos);
  EXPECT_NE(csv.find(",hot_dirty2.blocks,7\n"), std::string::npos);
  // SLO burn table only lists hosts that actually burned.
  EXPECT_NE(csv.find(",hot_slo1.host,1\n"), std::string::npos);
  EXPECT_EQ(csv.find(",hot_slo2."), std::string::npos);
  // The calendar rows close the snapshot (nothing was scheduled).
  EXPECT_NE(csv.find(",hot_slo1.miss,1\n0.000000,shard0.live,0\n"
                     "0.000000,shard0.queued,0\n"
                     "0.000000,shard0.head_lag_ns,0\n"),
            std::string::npos);
}

/// One snapshot's rows of a rollup CSV, metric -> value.
using SnapshotRows = std::map<std::string, std::string>;

/// Split a rollup export into snapshots; each starts at its
/// fleet.jobs_submitted row.
std::vector<SnapshotRows> snapshots_of(const std::string& csv) {
  std::vector<SnapshotRows> out;
  std::istringstream in{csv};
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::size_t a = line.find(',');
    const std::size_t b = line.find(',', a + 1);
    const std::string metric = line.substr(a + 1, b - a - 1);
    if (metric == "fleet.jobs_submitted") out.emplace_back();
    out.back()[metric] = line.substr(b + 1);
  }
  return out;
}

// The simulator has one calendar; its rows keep the names they had when
// the calendar could be split in shards, so recorded exports stay valid.
TEST(RollupTest, CalendarRowsReportTheSingleCalendarAtEverySample) {
  sim::Simulator sim;
  obs::Rollup rollup{sim, obs::RollupConfig{.hosts = 4}};
  // Timers the calendar files three ways: due today (the agenda), within a
  // ring year, and beyond it (overflow, not queued); some cancelled, whose
  // entries stay queued until the calendar reaches them.
  std::vector<sim::Simulator::TimerId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(sim.schedule_after(sim::Duration::micros(37 * i * i), [] {}));
  }
  for (int i = 0; i < 4; ++i) {
    sim.schedule_after(sim::Duration::seconds(1 + i), [] {});
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);

  std::vector<std::uint64_t> pending;
  std::vector<std::uint64_t> queued;
  const auto sample = [&] {
    rollup.sample_now();
    pending.push_back(sim.pending_count());
    queued.push_back(sim.calendar_queued());
  };
  sample();
  while (sim.step()) sample();

  const std::vector<SnapshotRows> snaps = snapshots_of(rollup.to_csv());
  ASSERT_EQ(snaps.size(), pending.size());
  bool queued_differs = false;
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    const SnapshotRows& row = snaps[k];
    EXPECT_EQ(row.at("shard0.live"), row.at("sched.pending_events")) << k;
    EXPECT_EQ(row.at("shard0.live"), std::to_string(pending[k])) << k;
    EXPECT_EQ(row.at("shard0.queued"), std::to_string(queued[k])) << k;
    EXPECT_EQ(row.at("shard0.head_lag_ns"), "0") << k;
    queued_differs = queued_differs || queued[k] != pending[k];
  }
  // The rows must not be interchangeable for the test to mean anything.
  EXPECT_TRUE(queued_differs);
}

TEST(RollupTest, HotTablesStayBoundedAndBreakTiesByHostIndex) {
  FleetFixture f;  // top_k = 2
  obs::Rollup& ru = f.rollup;
  for (int i = 0; i < 4; ++i) ru.job_submitted();
  // Three hosts with dirty churn, two tied at the top: the table holds
  // exactly top_k rows and the tie resolves to the lower host index.
  ru.job_terminal(&f.ids[2], &f.ids[0],
                  {.completed = true, .bytes = 1, .dirty_blocks = 50});
  ru.job_terminal(&f.ids[1], &f.ids[0],
                  {.completed = true, .bytes = 1, .dirty_blocks = 50});
  ru.job_terminal(&f.ids[3], &f.ids[0],
                  {.completed = true, .bytes = 1, .dirty_blocks = 8});
  ru.sample_now();
  const std::string csv = ru.to_csv();
  EXPECT_NE(csv.find(",hot_dirty1.host,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",hot_dirty2.host,8\n"), std::string::npos);
  EXPECT_EQ(csv.find(",hot_dirty3."), std::string::npos);
}

TEST(RollupTest, InFlightTracksRunningAttemptsPerRack) {
  FleetFixture f;
  obs::Rollup& ru = f.rollup;
  ru.job_submitted();
  ru.attempt_started(&f.ids[0], &f.ids[2]);
  ru.sample_now();
  std::string csv = ru.to_csv();
  EXPECT_NE(csv.find(",fleet.jobs_running,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",rack0.in_flight,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",rack1.in_flight,1\n"), std::string::npos);

  ru.attempt_finished(&f.ids[0], &f.ids[2]);
  ru.sample_now();
  csv = ru.to_csv();
  // The second snapshot's rack rows are back to balance (no rack row at
  // all: nothing else touched those cells, so the racks fold to zero and
  // drop out of the export).
  const std::size_t second = csv.rfind("fleet.jobs_running,0");
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(csv.find(",rack0.in_flight,1\n", second), std::string::npos);
}

// Both periodic samplers park via the simulator's observer-tick census: a
// plain has_pending() park test would let each sampler's tick count as
// "work" for the other and keep Simulator::run spinning forever (the
// original `--metrics` + `--fleet-metrics` hang).
TEST(RollupTest, CoAttachedRegistryAndRollupSamplersBothPark) {
  sim::Simulator sim;
  obs::Registry reg{sim, sim::Duration::millis(100)};
  reg.counter("fleet_test.bytes");
  obs::RollupConfig rcfg;
  rcfg.hosts = 4;
  rcfg.sample_interval = sim::Duration::millis(70);
  obs::Rollup rollup{sim, rcfg};
  reg.start_sampling();
  rollup.start_sampling();
  sim.spawn(
      [](sim::Simulator& s) -> sim::Task<void> {
        co_await s.delay(sim::Duration::seconds(1));
      }(sim),
      "work");
  sim.run();  // would never return before the census fix
  EXPECT_FALSE(reg.sampling());
  EXPECT_FALSE(rollup.sampling());
  EXPECT_EQ(sim.observer_ticks(), 0u);
  EXPECT_FALSE(sim.has_pending());
  // Both kept sampling while the real work was live.
  EXPECT_GE(rollup.snapshot_count(), 10u);
}

// ----------------------------------------------------- budgeted recording

/// Feed one synthetic migration with `events` pre-copy sends into `rec`.
void feed_migration(obs::FlightRecorder& rec, int events) {
  const auto mid = rec.begin_migration("vm0", "hostA", "hostB",
                                       sim::TimePoint::origin());
  for (int i = 0; i < events; ++i) {
    rec.disk_precopy_send(mid, sim::TimePoint::origin() + sim::Duration::millis(i), 1,
                          static_cast<std::uint64_t>(i % 512), 4, 16384);
  }
  obs::MigrationClose close;
  close.bytes_disk_first_pass = static_cast<std::uint64_t>(events) * 16384;
  rec.end_migration(mid, sim::TimePoint::origin() + sim::Duration::millis(events),
                    "completed", close);
}

std::uint64_t event_section_bytes(const std::string& jsonl) {
  std::uint64_t bytes = 0;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size() - 1;
    if (jsonl.compare(pos, 6, "{\"k\":\"") == 0) bytes += nl + 1 - pos;
    pos = nl + 1;
  }
  return bytes;
}

std::string serialize(const obs::FlightRecorder& rec) {
  std::ostringstream out;
  obs::write_flight_record(out, rec);
  return out.str();
}

TEST(BudgetedRecorderTest, EventSectionStaysWithinByteBudget) {
  constexpr std::uint64_t kBudget = 4096;
  obs::FlightRecorder full;
  obs::FlightRecorder thin;
  thin.set_byte_budget(kBudget);
  feed_migration(full, 2000);
  feed_migration(thin, 2000);

  const std::string full_jsonl = serialize(full);
  const std::string thin_jsonl = serialize(thin);
  // The unbudgeted twin blows way past the budget; the budgeted one holds.
  EXPECT_GT(event_section_bytes(full_jsonl), kBudget);
  EXPECT_LE(event_section_bytes(thin_jsonl), kBudget);
  EXPECT_GT(thin.sampled_out(), 0u);
  EXPECT_GT(thin.event_count(), 0u);
  EXPECT_GT(thin.sample_stride(), 1u);
  // Budget provenance lands in the header, sampling stats in the footer.
  EXPECT_NE(thin_jsonl.find("\"byte_budget\":4096"), std::string::npos);
  EXPECT_NE(thin_jsonl.find("\"stride\":"), std::string::npos);
  EXPECT_NE(thin_jsonl.find("\"sampled_out\":"), std::string::npos);
  EXPECT_EQ(full_jsonl.find("\"byte_budget\""), std::string::npos);
}

TEST(BudgetedRecorderTest, ExactAggregatesSurviveSampling) {
  obs::FlightRecorder full;
  obs::FlightRecorder thin;
  thin.set_byte_budget(2048);
  feed_migration(full, 1500);
  feed_migration(thin, 1500);

  // Everything below the event tier is exact: the summary line (aggregates
  // + the MigrationClose "report") must serialize byte-identically whether
  // or not events were sampled away.
  std::istringstream fs{serialize(full)};
  std::istringstream ts{serialize(thin)};
  std::string fline;
  std::string tline;
  std::string full_summary;
  std::string thin_summary;
  while (std::getline(fs, fline)) {
    if (fline.rfind("{\"summary\":", 0) == 0) full_summary = fline;
  }
  while (std::getline(ts, tline)) {
    if (tline.rfind("{\"summary\":", 0) == 0) thin_summary = tline;
  }
  ASSERT_FALSE(full_summary.empty());
  EXPECT_EQ(full_summary, thin_summary);
  EXPECT_EQ(thin.stats(0).disk_iters.at(0).blocks,
            full.stats(0).disk_iters.at(0).blocks);
}

TEST(BudgetedRecorderTest, BudgetedRecordReplaysByteIdentically) {
  obs::FlightRecorder a;
  obs::FlightRecorder b;
  a.set_byte_budget(2048);
  b.set_byte_budget(2048);
  feed_migration(a, 1777);
  feed_migration(b, 1777);
  EXPECT_EQ(serialize(a), serialize(b));
}

TEST(BudgetedRecorderTest, FirstEmitOfEveryMigrationIsKept) {
  obs::FlightRecorder thin;
  thin.set_byte_budget(2048);
  feed_migration(thin, 1000);
  feed_migration(thin, 1000);
  const auto events = thin.events();
  ASSERT_FALSE(events.empty());
  bool mig0_first = false;
  bool mig1_first = false;
  for (const auto& e : events) {
    if (e.mig == 0 && e.t_ns == 0) mig0_first = true;
    if (e.mig == 1 && e.t_ns == 0) mig1_first = true;
  }
  EXPECT_TRUE(mig0_first);
  EXPECT_TRUE(mig1_first);
}

// ------------------------------------------------------------ vmig_top

struct TopResult {
  int status = -1;
  std::string out;
  std::string err;
};

TopResult render(const std::string& csv, bool last_only = false) {
  std::istringstream in{csv};
  top::Options opt;
  opt.last_only = last_only;
  std::ostringstream out;
  std::ostringstream err;
  TopResult r;
  r.status = top::run_stream(in, opt, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(VmigTopTest, RendersFleetRacksHotAndShardSections) {
  FleetFixture f;
  f.rollup.job_submitted();
  f.rollup.job_terminal(&f.ids[1], &f.ids[3],
                        {.completed = true,
                         .bytes = 4096,
                         .downtime_ns = 12,
                         .dirty_blocks = 9});
  f.rollup.sample_now();
  const TopResult r = render(f.rollup.to_csv());
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("== fleet @ 0.000000s =="), std::string::npos);
  EXPECT_NE(r.out.find("jobs_submitted=1"), std::string::npos);
  EXPECT_NE(r.out.find("racks (2 active)"), std::string::npos);
  EXPECT_NE(r.out.find("hot dirty_blocks: host1=9"), std::string::npos);
  EXPECT_NE(r.out.find("shards: s0["), std::string::npos);
  EXPECT_NE(r.out.find("(1 snapshot)"), std::string::npos);
}

TEST(VmigTopTest, LastOnlyRendersTheFinalSnapshot) {
  FleetFixture f;
  f.rollup.job_submitted();
  f.rollup.sample_now();
  f.rollup.job_submitted();
  f.rollup.sample_now();  // same timestamp: the splitter must still see two
  const std::string csv = f.rollup.to_csv();
  const TopResult all = render(csv);
  EXPECT_NE(all.out.find("(2 snapshots)"), std::string::npos);
  EXPECT_NE(all.out.find("jobs_submitted=1"), std::string::npos);
  EXPECT_NE(all.out.find("jobs_submitted=2"), std::string::npos);

  const TopResult last = render(csv, /*last_only=*/true);
  EXPECT_EQ(last.out.find("jobs_submitted=1"), std::string::npos);
  EXPECT_NE(last.out.find("jobs_submitted=2"), std::string::npos);
  EXPECT_NE(last.out.find("(2 snapshots)"), std::string::npos);
}

TEST(VmigTopTest, RejectsNonRollupInput) {
  EXPECT_EQ(render("not,a,rollup\n1,2,3\n").status, 2);
  EXPECT_EQ(render("").status, 2);
  const TopResult r = render("t_seconds,metric,value\ngarbage-line\n");
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("malformed row"), std::string::npos);
}

// ---------------------------------------------- analyze --fleet end to end

struct FleetRun {
  std::string flight_jsonl;
  std::string fleet_csv;
};

/// A small chaos-seeded evacuation with the whole fleet stack attached —
/// the files `vmig_sim --cluster --flight-record --fleet-metrics` writes.
FleetRun make_fleet_run() {
  sim::Simulator sim;
  sim.set_fast_forward(true);
  scenario::ClusterTestbedConfig bed;
  bed.hosts = 16;
  bed.vbd_mib = 16;
  bed.guest_mem_mib = 4;
  bed.disk.seq_read_mbps = 800.0;
  bed.disk.seq_write_mbps = 700.0;
  bed.disk.seek = 100_us;
  bed.disk.request_overhead = 5_us;
  bed.lan.bandwidth_mibps = 1000.0;
  bed.lan.latency = 50_us;
  scenario::ClusterTestbed tb{sim, bed};
  for (int i = 0; i < 6; ++i) tb.add_vm("vm" + std::to_string(i), 0);
  tb.prefill_disks();

  std::vector<std::unique_ptr<workload::SteadyWriter>> writers;
  for (int i = 0; i < 6; ++i) {
    workload::SteadyWriterConfig wc;
    wc.blocks_per_tick = 16;
    wc.region_blocks = 1024;
    wc.until = sim::TimePoint::origin() + 1_s;
    writers.push_back(std::make_unique<workload::SteadyWriter>(
        sim, tb.vm(static_cast<std::size_t>(i)), wc));
    writers.back()->start();
  }

  obs::FlightRecorder rec;
  rec.set_byte_budget(8192);
  obs::RollupConfig rcfg;
  rcfg.hosts = 16;
  rcfg.sample_interval = sim::Duration::millis(200);
  obs::Rollup rollup{sim, rcfg};
  tb.attach_rollup(&rollup);
  rollup.start_sampling();

  cluster::Orchestrator orch{
      sim, tb.manager(),
      {.caps = {.per_source = 4, .per_dest = 2, .per_link = 1},
       .retry = {.max_attempts = 3,
                 .initial_backoff = sim::Duration::millis(20)},
       .recorder = &rec,
       .rollup = &rollup}};
  auto cfg = core::MigrationConfig::build()
                 .bitmap(core::BitmapKind::kFlat)
                 .disk_iterations(4, 64)
                 .done();
  orch.submit_evacuation(tb.host(0), tb.pick_destinations(0, 4), cfg);
  // Chaos window mid-evacuation: retries must reconcile too.
  auto dests = tb.pick_destinations(0, 1);
  tb.host(0).link_to(*dests[0]).fail_at(sim::TimePoint{} + 4_ms, 8_ms);
  orch.drain();
  EXPECT_TRUE(orch.all_terminal());
  EXPECT_GT(orch.retries(), 0u);

  rollup.sample_now();
  FleetRun r;
  r.flight_jsonl = serialize(rec);
  r.fleet_csv = rollup.to_csv();
  return r;
}

const FleetRun& fleet_run() {
  static const FleetRun r = make_fleet_run();
  return r;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  ASSERT_TRUE(f.is_open()) << path;
  f << content;
}

struct AnalyzeResult {
  int status = -1;
  std::string out;
  std::string err;
};

AnalyzeResult analyze_fleet(const std::string& record_path,
                            const std::string& fleet_metrics_path) {
  analyze::Options opt;
  opt.record_path = record_path;
  opt.fleet = true;
  opt.fleet_metrics_path = fleet_metrics_path;
  std::ostringstream out;
  std::ostringstream err;
  AnalyzeResult r;
  r.status = analyze::run(opt, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(AnalyzeFleetTest, BudgetedChaosRunReconcilesAgainstRollup) {
  write_file("fleet_test_flight.jsonl", fleet_run().flight_jsonl);
  write_file("fleet_test_rollup.csv", fleet_run().fleet_csv);
  const AnalyzeResult r =
      analyze_fleet("fleet_test_flight.jsonl", "fleet_test_rollup.csv");
  EXPECT_EQ(r.status, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("fleet rollup (derived from record):"),
            std::string::npos);
  EXPECT_EQ(r.out.find("[FAIL]"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("verdict: all reconciliation checks passed"),
            std::string::npos);
}

TEST(AnalyzeFleetTest, TamperedRollupTotalIsCaught) {
  write_file("fleet_test_flight.jsonl", fleet_run().flight_jsonl);
  // Corrupt the terminal fleet.bytes_total row: reconciliation must fail.
  std::string csv = fleet_run().fleet_csv;
  const std::size_t pos = csv.rfind("fleet.bytes_total,");
  ASSERT_NE(pos, std::string::npos);
  csv[pos + std::string("fleet.bytes_total,").size()] = '9';
  write_file("fleet_test_rollup_bad.csv", csv);
  const AnalyzeResult r =
      analyze_fleet("fleet_test_flight.jsonl", "fleet_test_rollup_bad.csv");
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.out.find("[FAIL]"), std::string::npos);
  EXPECT_NE(r.out.find("verdict: RECONCILIATION FAILED"), std::string::npos);
}

}  // namespace
}  // namespace vmig

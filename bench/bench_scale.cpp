// Scale/throughput bench: the repo's first *wall-clock* benchmark. Every
// other bench reports simulated time; this one measures how fast the
// simulator itself chews through a cluster evacuation as the testbed grows
// (64 -> 10000 hosts), reporting events/sec and wall-ms per simulated
// minute. Simulated results stay deterministic — only the wall-clock
// readings vary run to run, which is why the committed baseline gates them
// with direction-aware, regression-only tolerances, while the deterministic
// counters (events, calendar probes, scheduler jobs_visited, token pages
// materialized, coroutine frames) are gated exactly
// (scripts/check_bench_baselines.py).
//
// Every point registers ~10 cold VMs per host on top of the evacuated
// guests, so the 10k-host point carries ~100k registered VMs — lazy
// instantiation (docs/SCALE.md) is what keeps setup cost proportional to
// the hosts the evacuation actually touches, not the cluster size. Setup
// (testbed construction + registration + prefill) is reported separately
// from steady-state throughput and never gated.
//
// Usage: bench_scale [--quick] [--points N,M,...] [--no-fast-forward]
//                    [--budget-wall-ms MS] [--json FILE] [--profile-out FILE]
//                    [--fleet] [--fleet-out FILE] [--flight-budget BYTES]
//   --quick            64-host point only (CI smoke; the committed baseline
//                      bench/baselines/BENCH_scale.json holds exactly this)
//   --points N,M,...   run exactly these host counts (CI scale matrix legs)
//   --no-fast-forward  tick every guest write as a discrete event (A/B
//                      reference; simulated results are byte-identical)
//   --budget-wall-ms   fail (exit 1) if any point's evacuation wall time
//                      exceeds MS (the 10k leg's 10 s acceptance gate)
//   --json FILE        flat metrics JSON for the baseline gate
//   --profile-out      self-profile the runs, write a collapsed-stack file
//   --fleet            A/B every point: observability off, then twice with
//                      the fleet rollup + a byte-budgeted flight recorder
//                      attached. Reports obs-on throughput and the obs-on
//                      vs obs-off events/sec delta (the cost of telemetry,
//                      fidelity fallback included), replay divergence
//                      across the two obs-on runs (must be 0: job reports
//                      and the fleet export are byte-identical on replay),
//                      and flight-record budget overrun (must be 0).
//                      Gated via bench/baselines/BENCH_fleet.json.
//   --fleet-out FILE   write the largest point's fleet rollup CSV (CI
//                      artifact; `vmig_top FILE` renders it)
//   --flight-budget B  flight-recorder event-section byte budget for the
//                      obs-on runs (default 65536)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "cluster/orchestrator.hpp"
#include "core/report_io.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "scenario/cluster_testbed.hpp"
#include "workloads/steady_writer.hpp"

using namespace vmig;
using namespace vmig::sim::literals;

namespace {

bool g_fast_forward = true;

/// --fleet mode: A/B each point with the obs stack attached.
struct FleetOpts {
  bool enabled = false;
  std::uint64_t flight_budget = 65536;  ///< event-section byte budget
};

struct Row {
  int hosts = 0;
  int vms = 0;               // evacuated guests (materialized, with writers)
  std::uint64_t registered_vms = 0;   // total incl. cold placeholders
  std::uint64_t materialized_hosts = 0;
  double setup_ms = 0;        // testbed construction + registration + prefill
  double wall_ms = 0;         // drain() wall time (steady state)
  double sim_s = 0;           // simulated makespan
  std::uint64_t events = 0;   // simulator events processed (deterministic)
  std::uint64_t calendar_probes = 0;  // calendar extraction work (deterministic)
  std::uint64_t pages_materialized = 0;  // token pages made explicit (deterministic)
  std::uint64_t payload_entries = 0;     // migration payload entries copied (deterministic)
  std::uint64_t jobs_visited = 0;  // scheduler job visits (deterministic)
  std::uint64_t frames = 0;  // coroutine frames created (deterministic)
  double events_per_sec = 0;  // events / wall-s (throughput, wall)
  double wall_ms_per_sim_min = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  // --fleet columns (obs-on re-run of the same point).
  bool fleet = false;
  double obs_wall_ms = 0;
  double obs_events_per_sec = 0;
  /// Replay divergence: jobs whose terminal MigrationReport JSON differs
  /// between two obs-on runs of the identical point, +1 if the fleet
  /// rollup exports differ. Telemetry must be deterministic, so the
  /// committed baseline gates this at exactly 0.
  std::uint64_t report_divergence = 0;
  /// max(0, serialized flight-record event-section bytes - budget); the
  /// budgeted recorder's contract, gated at exactly 0.
  std::uint64_t flight_over_budget_bytes = 0;
  /// Obs-on run's fleet rollup export (bounded; --fleet-out writes the
  /// largest point's).
  std::string fleet_csv;
};

constexpr int kColdVmsPerHost = 10;
constexpr std::size_t kMaxDestinations = 64;

// Evacuate host0's guests into the least-loaded corner of an N-host full
// mesh. The evacuated-VM count grows with the cluster so the event volume
// scales too; disks shrink at the biggest points so the 10k-host run stays
// inside a laptop's memory and a CI minute.
//
// `obs` non-null attaches the fleet telemetry stack (rollup + budgeted
// flight recorder) for the --fleet A/B; `reports` non-null collects every
// job's terminal MigrationReport as JSON for the divergence check.
Row run_once(int hosts, const FleetOpts* obs,
             std::vector<std::string>* reports) {
  Row r;
  r.hosts = hosts;
  r.vms = hosts / 8;

  obs::WallStopwatch setup_sw;
  sim::Simulator sim;
  sim.set_fast_forward(g_fast_forward);
  scenario::ClusterTestbedConfig bed;
  bed.hosts = hosts;
  bed.vbd_mib = hosts >= 4096 ? 32 : 128;
  bed.guest_mem_mib = 32;
  scenario::ClusterTestbed tb{sim, bed};
  // Evacuated guests first (ids 1..vms), then the cold fleet: ~10 VMs per
  // host that exist only as registration records. They shape placement
  // (least-loaded planning counts them) but are never materialized.
  for (int i = 0; i < r.vms; ++i) tb.add_vm("vm" + std::to_string(i), 0);
  for (int h = 0; h < hosts; ++h) {
    for (int c = 0; c < kColdVmsPerHost; ++c) {
      tb.register_vm("cold" + std::to_string(h) + "." + std::to_string(c),
                     static_cast<std::size_t>(h));
    }
  }
  r.registered_vms = tb.vm_count();
  tb.prefill_disks();
  // Writers stay hot long enough to overlap most of the evacuation window
  // at every size (the 50 ms poll keeps launches rolling well past it).
  // Under fast-forward the ticks fold into bulk bitmap marks at observation
  // points instead of firing as events — byte-identical dirty state either
  // way (pinned by tests/scale_test.cpp).
  std::vector<std::unique_ptr<workload::SteadyWriter>> writers;
  writers.reserve(static_cast<std::size_t>(r.vms));
  for (int i = 0; i < r.vms; ++i) {
    workload::SteadyWriterConfig wc;
    wc.until = sim::TimePoint::origin() + 20_s;
    writers.push_back(std::make_unique<workload::SteadyWriter>(
        sim, tb.vm(static_cast<std::size_t>(i)), wc));
    writers.back()->start();
  }

  std::unique_ptr<obs::Rollup> rollup;
  std::unique_ptr<obs::FlightRecorder> recorder;
  cluster::OrchestratorConfig cfg;
  cfg.caps = {.per_source = 4, .per_dest = 2, .per_link = 1, .total = 16};
  cfg.policy = cluster::SchedulePolicyKind::kFifo;
  cfg.poll_interval = 50_ms;
  if (obs != nullptr) {
    obs::RollupConfig rcfg;
    rcfg.hosts = static_cast<std::size_t>(hosts);
    rollup = std::make_unique<obs::Rollup>(sim, rcfg);
    tb.attach_rollup(rollup.get());
    rollup->start_sampling();
    recorder = std::make_unique<obs::FlightRecorder>();
    recorder->set_byte_budget(obs->flight_budget);
    cfg.rollup = rollup.get();
    cfg.recorder = recorder.get();
  }
  cluster::Orchestrator orch{sim, tb.manager(), cfg};
  orch.submit_evacuation(
      tb.host(0),
      tb.pick_destinations(0, std::min<std::size_t>(
                                  static_cast<std::size_t>(hosts) - 1,
                                  kMaxDestinations)),
      tb.paper_migration_config());
  r.setup_ms = setup_sw.elapsed_ms();

  obs::WallStopwatch run_sw;
  orch.drain();
  r.wall_ms = run_sw.elapsed_ms();

  r.materialized_hosts = tb.materialized_host_count();
  r.sim_s = sim.now().to_seconds();
  r.events = sim.events_processed();
  r.calendar_probes = sim.calendar_probes();
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    if (tb.host_materialized(i)) {
      r.pages_materialized += tb.host(i).pages_materialized();
      r.payload_entries += tb.host(i).payload_entries();
    }
  }
  r.jobs_visited = orch.jobs_visited();
  r.frames = sim.frames_created();
  r.completed = orch.jobs_completed();
  r.failed = orch.jobs_failed();
  const double wall_s = r.wall_ms / 1e3;
  if (wall_s > 0) r.events_per_sec = static_cast<double>(r.events) / wall_s;
  const double sim_min = r.sim_s / 60.0;
  if (sim_min > 0) r.wall_ms_per_sim_min = r.wall_ms / sim_min;

  if (reports != nullptr) {
    reports->reserve(orch.job_count());
    for (std::size_t id = 0; id < orch.job_count(); ++id) {
      reports->push_back(core::to_json(
          orch.job(static_cast<cluster::JobId>(id)).outcome.report));
    }
  }
  if (obs != nullptr) {
    rollup->sample_now();  // terminal fleet state
    std::ostringstream csv;
    rollup->write_csv(csv);
    r.fleet_csv = csv.str();
    // Event-section size of the serialized record vs the byte budget.
    std::ostringstream rec;
    obs::write_flight_record(rec, *recorder);
    const std::string text = rec.str();
    std::uint64_t event_bytes = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size() - 1;
      if (text.compare(pos, 6, "{\"k\":\"") == 0) {
        event_bytes += nl + 1 - pos;
      }
      pos = nl + 1;
    }
    r.flight_over_budget_bytes =
        event_bytes > obs->flight_budget ? event_bytes - obs->flight_budget
                                         : 0;
  }
  return r;
}

// One table row: the plain run, plus — under --fleet — two obs-on replays
// of the identical point. Obs-on vs obs-off yields the telemetry cost
// columns (the delta includes the fidelity fallback: with a redirty hook
// attached, writer ticks run live through the full disk_write path, so the
// simulated run itself is allowed to differ from the obs-off one). The two
// obs-on replays yield the exactness columns: replaying one configuration
// must reproduce every job report and the fleet export byte-for-byte.
Row run_size(int hosts, const FleetOpts& fleet) {
  Row r = run_once(hosts, nullptr, nullptr);
  if (!fleet.enabled) return r;

  std::vector<std::string> rep1;
  std::vector<std::string> rep2;
  Row o1 = run_once(hosts, &fleet, &rep1);
  Row o2 = run_once(hosts, &fleet, &rep2);
  r.fleet = true;
  r.obs_wall_ms = o1.wall_ms;
  r.obs_events_per_sec = o1.events_per_sec;
  r.flight_over_budget_bytes =
      std::max(o1.flight_over_budget_bytes, o2.flight_over_budget_bytes);
  const std::size_t n = std::max(rep1.size(), rep2.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= rep1.size() || i >= rep2.size() || rep1[i] != rep2[i]) {
      ++r.report_divergence;
    }
  }
  if (o1.fleet_csv != o2.fleet_csv) ++r.report_divergence;
  r.fleet_csv = std::move(o1.fleet_csv);
  return r;
}

bool write_text(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

bool parse_points(std::string_view s, std::vector<int>* out) {
  out->clear();
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string tok{s.substr(0, comma)};
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v < 2) return false;
    out->push_back(static_cast<int>(v));
    s = comma == std::string_view::npos ? std::string_view{}
                                        : s.substr(comma + 1);
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string profile_out;
  std::string fleet_out;
  FleetOpts fleet;
  std::vector<int> sizes{64, 256, 1024, 4096, 10000};
  double budget_wall_ms = 0;  // 0 = no budget
  for (int i = 1; i < argc; ++i) {
    const std::string_view a{argv[i]};
    if (a == "--quick") {
      sizes = {64};
    } else if (a == "--points" && i + 1 < argc) {
      if (!parse_points(argv[++i], &sizes)) {
        std::fprintf(stderr, "error: bad --points list '%s'\n", argv[i]);
        return 2;
      }
    } else if (a == "--no-fast-forward") {
      g_fast_forward = false;
    } else if (a == "--budget-wall-ms" && i + 1 < argc) {
      budget_wall_ms = std::strtod(argv[++i], nullptr);
    } else if (a == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (a == "--profile-out" && i + 1 < argc) {
      profile_out = argv[++i];
    } else if (a == "--fleet") {
      fleet.enabled = true;
    } else if (a == "--fleet-out" && i + 1 < argc) {
      fleet_out = argv[++i];
      fleet.enabled = true;
    } else if (a == "--flight-budget" && i + 1 < argc) {
      fleet.flight_budget = std::strtoull(argv[++i], nullptr, 10);
      fleet.enabled = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--points N,M,...] [--no-fast-forward]"
                   " [--budget-wall-ms MS] [--json FILE] [--profile-out FILE]"
                   " [--fleet] [--fleet-out FILE] [--flight-budget BYTES]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::Profiler profiler;
  if (!profile_out.empty()) profiler.activate();

  bench::header("simulator scale",
                "wall-clock throughput of cluster evacuations");
  std::printf("  fast-forward: %s\n", g_fast_forward ? "on" : "off (ticked)");
  if (fleet.enabled) {
    std::printf("  fleet A/B: on (flight budget %llu bytes)\n",
                static_cast<unsigned long long>(fleet.flight_budget));
  }

  std::vector<Row> rows;
  for (const int n : sizes) {
    std::printf("  running %d hosts...\n", n);
    std::fflush(stdout);
    rows.push_back(run_size(n, fleet));
  }

  std::printf("\n%-7s %6s %9s %7s %10s %10s %9s %12s %13s %14s\n", "hosts",
              "vms", "reg-vms", "mat-hs", "setup(ms)", "wall(ms)", "sim(s)",
              "events", "events/s", "wall-ms/sim-min");
  bool all_ok = true;
  bool in_budget = true;
  for (const auto& r : rows) {
    std::printf("%-7d %6d %9llu %7llu %10.1f %10.1f %9.2f %12llu %13.0f "
                "%14.1f\n",
                r.hosts, r.vms, static_cast<unsigned long long>(r.registered_vms),
                static_cast<unsigned long long>(r.materialized_hosts),
                r.setup_ms, r.wall_ms, r.sim_s,
                static_cast<unsigned long long>(r.events), r.events_per_sec,
                r.wall_ms_per_sim_min);
    if (r.failed != 0 || r.completed != static_cast<std::uint64_t>(r.vms)) {
      all_ok = false;
    }
    if (budget_wall_ms > 0 &&
        std::max(r.wall_ms, r.obs_wall_ms) > budget_wall_ms) {
      in_budget = false;
    }
  }

  bool fleet_exact = true;
  if (fleet.enabled) {
    std::printf("\n%-7s %13s %13s %8s %10s %12s\n", "hosts", "off-ev/s",
                "obs-ev/s", "delta%", "rep-diverg", "over-budget");
    for (const auto& r : rows) {
      const double delta =
          r.events_per_sec > 0
              ? 100.0 * (r.obs_events_per_sec - r.events_per_sec) /
                    r.events_per_sec
              : 0.0;
      std::printf("%-7d %13.0f %13.0f %+7.1f%% %10llu %12llu\n", r.hosts,
                  r.events_per_sec, r.obs_events_per_sec, delta,
                  static_cast<unsigned long long>(r.report_divergence),
                  static_cast<unsigned long long>(r.flight_over_budget_bytes));
      if (r.report_divergence != 0 || r.flight_over_budget_bytes != 0) {
        fleet_exact = false;
      }
    }
  }

  bench::section("claims checked");
  std::printf("  every evacuation completes:  %s\n", all_ok ? "yes" : "NO");
  if (budget_wall_ms > 0) {
    std::printf("  all points within %.0f ms wall budget:  %s\n",
                budget_wall_ms, in_budget ? "yes" : "NO");
  }
  if (fleet.enabled) {
    std::printf("  fleet telemetry replays byte-identically and the flight\n"
                "  record stays inside its byte budget:  %s\n",
                fleet_exact ? "yes" : "NO");
  }

  if (!fleet_out.empty() && !rows.empty()) {
    if (!write_text(fleet_out.c_str(), rows.back().fleet_csv)) {
      std::fprintf(stderr, "error: cannot write %s\n", fleet_out.c_str());
      return 2;
    }
    std::printf("  fleet rollup (h%d) -> %s\n", rows.back().hosts,
                fleet_out.c_str());
  }

  if (!profile_out.empty()) {
    profiler.deactivate();
    std::printf("\n-- self-profile (wall clock, simulated results unaffected) "
                "--\n%s",
                profiler.table().c_str());
    if (!write_text(profile_out.c_str(), profiler.collapsed())) {
      std::fprintf(stderr, "error: cannot write %s\n", profile_out.c_str());
      return 2;
    }
    std::printf("  collapsed stacks -> %s\n", profile_out.c_str());
  }

  if (!json_out.empty()) {
    std::vector<std::pair<std::string, double>> kv;
    for (const auto& r : rows) {
      const std::string p = "scale.h" + std::to_string(r.hosts) + ".";
      kv.emplace_back(p + "events", static_cast<double>(r.events));
      kv.emplace_back(p + "calendar_probes",
                      static_cast<double>(r.calendar_probes));
      kv.emplace_back(p + "pages_materialized",
                      static_cast<double>(r.pages_materialized));
      kv.emplace_back(p + "payload_entries",
                      static_cast<double>(r.payload_entries));
      kv.emplace_back(p + "jobs_visited", static_cast<double>(r.jobs_visited));
      kv.emplace_back(p + "frames", static_cast<double>(r.frames));
      kv.emplace_back(p + "events_per_sec", r.events_per_sec);
      kv.emplace_back(p + "wall_ms_per_sim_min", r.wall_ms_per_sim_min);
      kv.emplace_back(p + "setup_ms", r.setup_ms);  // reported, never gated
      if (r.fleet) {
        const std::string f = "fleet.h" + std::to_string(r.hosts) + ".";
        kv.emplace_back(f + "obs_events_per_sec", r.obs_events_per_sec);
        // Exact-zero contracts (absolute gate in check_bench_baselines.py).
        kv.emplace_back(f + "report_divergence",
                        static_cast<double>(r.report_divergence));
        kv.emplace_back(f + "flight_over_budget_bytes",
                        static_cast<double>(r.flight_over_budget_bytes));
      }
    }
    if (!bench::write_flat_json(json_out.c_str(), kv)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 2;
    }
    std::printf("  metrics -> %s\n", json_out.c_str());
  }
  return (all_ok && in_budget && fleet_exact) ? 0 : 1;
}

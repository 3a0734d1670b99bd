// vmig_sim — command-line front end for the migration simulator.
//
// Runs one migration experiment on the calibrated two-host testbed and
// prints the report. Examples:
//
//   vmig_sim                                 # idle guest, paper testbed
//   vmig_sim --workload web --disk-mib 8192
//   vmig_sim --workload bonnie --rate-limit 30
//   vmig_sim --scheme delta --workload web   # run a baseline instead
//   vmig_sim --roundtrip --dwell 600         # TPM out + incremental back
//   vmig_sim --sparse --fullness 0.25        # §VII free-block map
//   vmig_sim --verbose                       # narrate migration phases
//   vmig_sim --trace out.json                # Chrome/Perfetto trace export
//   vmig_sim --metrics out.csv               # sampled metrics time series
//   vmig_sim --cluster --cluster-vms 8       # orchestrated host evacuation
//   vmig_sim --fault 'outage@65s+2s' --warmup 60   # fault mid-migration

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <fstream>
#include <stdexcept>
#include <string>

#include "baselines/delta_forward.hpp"
#include "cluster/orchestrator.hpp"
#include "baselines/freeze_and_copy.hpp"
#include "baselines/on_demand.hpp"
#include "baselines/shared_storage.hpp"
#include "core/disruption.hpp"
#include "core/report_io.hpp"
#include "fault/fault_spec.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "obs/tracer.hpp"
#include "scenario/cluster_testbed.hpp"
#include "scenario/testbed.hpp"
#include "simcore/log.hpp"
#include "workloads/diabolical.hpp"
#include "workloads/kernel_build.hpp"
#include "workloads/memory_hog.hpp"
#include "workloads/trace_replay.hpp"
#include "workloads/streaming.hpp"
#include "workloads/web_server.hpp"

using namespace vmig;
using namespace vmig::sim::literals;

namespace {

struct Options {
  std::string workload = "idle";  // idle|web|stream|bonnie|build|memhog|trace
  std::string trace_file;
  std::string scheme = "tpm";     // tpm|freeze|shared|ondemand|delta
  std::uint64_t disk_mib = 39070;
  std::uint64_t mem_mib = 512;
  double fullness = 1.0;
  double rate_limit = 0.0;
  double warmup_s = 60.0;
  double post_s = 30.0;
  double dwell_s = 600.0;
  std::uint64_t seed = 42;
  bool roundtrip = false;
  bool sparse = false;
  std::string bitmap = "layered";  // flat|layered|3level
  bool verbose = false;
  bool json = false;
  bool progress = false;
  bool sim_trace = false;  // --sim-trace: narrate scheduler events to stderr
  std::string chrome_trace;  // --trace: Chrome trace-event JSON output
  std::string metrics_csv;   // --metrics: sampled metrics, long-format CSV
  std::string timeline;      // --timeline: human-readable span list
  std::string flight_record; // --flight-record: JSONL event log (vmig_analyze)
  double metrics_interval_s = 1.0;
  // --flight-budget: byte-budgeted event sampling for the flight recorder
  // (aggregates/summaries stay exact; 0 = unbudgeted).
  std::uint64_t flight_budget = 0;
  // --fleet-metrics: fleet rollup CSV (cluster mode; docs/OBSERVABILITY.md).
  std::string fleet_metrics;
  // --cluster: orchestrated evacuation on the N-host testbed.
  bool cluster = false;
  bool fast_forward = false;  // --fast-forward: settle idle dirty-rate models
  int cluster_hosts = 3;
  int cluster_vms = 4;
  std::string cluster_policy = "fifo";  // fifo|smallest-dirty|workload-cycle
  double cluster_outage_s = 0.0;  // host0->host1 outage length (starts at 1s)
  // --fault: fault windows injected on the migration path (docs/FAULTS.md).
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  // --profile: wall-clock self-profile of the simulator (docs/OBSERVABILITY.md).
  bool profile = false;
  std::string profile_out;  // collapsed-stack output (implies --profile)
  // Set when any --cluster-* tuning flag appears, so validate() can reject
  // combinations that would otherwise be silently ignored.
  bool cluster_flags_used = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workload W     idle|web|stream|bonnie|build|memhog|trace (default idle)\n"
      "  --replay FILE    I/O trace to replay (with --workload trace)\n"
      "  --scheme S       tpm | freeze | shared | ondemand | delta (default tpm)\n"
      "  --disk-mib N     VBD size in MiB                  (default 39070)\n"
      "  --mem-mib N      guest memory in MiB              (default 512)\n"
      "  --fullness F     fraction of the disk populated   (default 1.0)\n"
      "  --rate-limit M   migration shaping, MiB/s; 0=off  (default 0)\n"
      "  --warmup S       seconds before migrating         (default 60)\n"
      "  --post S         seconds observed afterwards      (default 30)\n"
      "  --dwell S        seconds at dest before IM back   (default 600)\n"
      "  --roundtrip      migrate out, dwell, migrate back incrementally\n"
      "  --sparse         skip never-written blocks (guest-assisted, §VII)\n"
      "  --bitmap K       flat | layered | 3level          (default layered)\n"
      "  --seed N         RNG seed                         (default 42)\n"
      "  --json           print the report as JSON instead of text\n"
      "  --progress       print migration phase transitions\n"
      "  --verbose        narrate migration phases\n"
      "  --sim-trace      narrate scheduler events (schedule/cancel/fire)\n"
      "  --trace FILE     write a Chrome trace-event JSON (load in Perfetto)\n"
      "  --metrics FILE   write sampled metrics as t_seconds,metric,value CSV\n"
      "  --metrics-interval S  metrics sampling cadence in sim-seconds (default 1)\n"
      "  --timeline FILE  write a human-readable span timeline\n"
      "  --flight-record FILE  write the migration flight record as JSONL\n"
      "                   (post-mortem input for vmig_analyze)\n"
      "  --flight-budget BYTES  cap the flight record's event section by\n"
      "                   deterministic per-migration sampling (terminal\n"
      "                   records and exact aggregates always kept)\n"
      "  --fleet-metrics FILE  write the fleet rollup (racks, hot hosts,\n"
      "                   calendar occupancy) as CSV; view with vmig_top and\n"
      "                   reconcile with vmig_analyze --fleet (cluster mode)\n"
      "  --cluster        evacuate host0 of an N-host cluster through the\n"
      "                   migration orchestrator (disk/mem sizes are per VM;\n"
      "                   the default VBD shrinks to 1024 MiB in this mode)\n"
      "  --cluster-hosts N    cluster size                (default 3)\n"
      "  --cluster-vms N      guests to evacuate off host0 (default 4)\n"
      "  --cluster-policy P   fifo | smallest-dirty | workload-cycle\n"
      "  --cluster-outage S   fail host0->host1 for S seconds at t=1s\n"
      "  --fast-forward       fold idle dirty-rate model ticks into bulk\n"
      "                       settles (cluster mode; see docs/SCALE.md)\n"
      "  --fault SPEC     inject faults on the migration path; SPEC is\n"
      "                   ';'-separated clauses (see docs/FAULTS.md):\n"
      "                     outage@<at>+<dur>       degrade@<at>+<dur>:<f>\n"
      "                     latency@<at>+<dur>:<d>  loss@<at>+<dur>:<p>\n"
      "                   e.g. 'outage@65s+2s;loss@70s+30s:0.05'\n"
      "  --fault-seed N   seed for the injected-loss RNG     (default 1)\n"
      "  --profile        print a wall-clock self-profile of the simulator\n"
      "                   (per-category table; simulated results unchanged)\n"
      "  --profile-out F  also write a collapsed-stack profile to F\n"
      "                   (speedscope/flamegraph format; implies --profile)\n",
      argv0);
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = need("--workload");
    } else if (a == "--replay") {
      o.trace_file = need("--replay");
    } else if (a == "--trace") {
      o.chrome_trace = need("--trace");
    } else if (a == "--metrics") {
      o.metrics_csv = need("--metrics");
    } else if (a == "--metrics-interval") {
      o.metrics_interval_s = std::strtod(need("--metrics-interval"), nullptr);
    } else if (a == "--timeline") {
      o.timeline = need("--timeline");
    } else if (a == "--flight-record") {
      o.flight_record = need("--flight-record");
    } else if (a == "--flight-budget") {
      o.flight_budget = std::strtoull(need("--flight-budget"), nullptr, 10);
    } else if (a == "--fleet-metrics") {
      o.fleet_metrics = need("--fleet-metrics");
      o.cluster_flags_used = true;
    } else if (a == "--scheme") {
      o.scheme = need("--scheme");
    } else if (a == "--disk-mib") {
      o.disk_mib = std::strtoull(need("--disk-mib"), nullptr, 10);
    } else if (a == "--mem-mib") {
      o.mem_mib = std::strtoull(need("--mem-mib"), nullptr, 10);
    } else if (a == "--fullness") {
      o.fullness = std::strtod(need("--fullness"), nullptr);
    } else if (a == "--rate-limit") {
      o.rate_limit = std::strtod(need("--rate-limit"), nullptr);
    } else if (a == "--warmup") {
      o.warmup_s = std::strtod(need("--warmup"), nullptr);
    } else if (a == "--post") {
      o.post_s = std::strtod(need("--post"), nullptr);
    } else if (a == "--dwell") {
      o.dwell_s = std::strtod(need("--dwell"), nullptr);
    } else if (a == "--seed") {
      o.seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (a == "--cluster") {
      o.cluster = true;
    } else if (a == "--fast-forward") {
      o.fast_forward = true;
      o.cluster_flags_used = true;
    } else if (a == "--cluster-hosts") {
      o.cluster_hosts = static_cast<int>(std::strtol(need("--cluster-hosts"), nullptr, 10));
      o.cluster_flags_used = true;
    } else if (a == "--cluster-vms") {
      o.cluster_vms = static_cast<int>(std::strtol(need("--cluster-vms"), nullptr, 10));
      o.cluster_flags_used = true;
    } else if (a == "--cluster-policy") {
      o.cluster_policy = need("--cluster-policy");
      o.cluster_flags_used = true;
    } else if (a == "--cluster-outage") {
      o.cluster_outage_s = std::strtod(need("--cluster-outage"), nullptr);
      o.cluster_flags_used = true;
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--profile-out") {
      o.profile_out = need("--profile-out");
      o.profile = true;
    } else if (a == "--fault") {
      o.fault_spec = need("--fault");
    } else if (a == "--fault-seed") {
      o.fault_seed = std::strtoull(need("--fault-seed"), nullptr, 10);
    } else if (a == "--roundtrip") {
      o.roundtrip = true;
    } else if (a == "--sparse") {
      o.sparse = true;
    } else if (a == "--bitmap") {
      o.bitmap = need("--bitmap");
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else if (a == "--sim-trace") {
      o.sim_trace = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

core::BitmapKind parse_bitmap(const std::string& k) {
  if (k == "flat") return core::BitmapKind::kFlat;
  if (k == "3level") return core::BitmapKind::kThreeLevel;
  return core::BitmapKind::kLayered;
}

/// Every cross-flag rule in one place, run before any simulation work.
/// Exits 2 on violation: bad combinations and unwritable output paths fail
/// fast instead of being discovered (or silently ignored) after the run.
void validate_or_die(const Options& o) {
  const auto die = [](const std::string& msg) {
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    std::exit(2);
  };
  if (!(o.metrics_interval_s > 0.0)) die("--metrics-interval must be > 0");
  if (o.flight_budget > 0 && o.flight_record.empty()) {
    die("--flight-budget requires --flight-record");
  }
  if (o.bitmap != "flat" && o.bitmap != "layered" && o.bitmap != "3level") {
    die("--bitmap must be flat, layered, or 3level");
  }
  if (o.workload == "trace" && o.trace_file.empty()) {
    die("--workload trace requires --replay FILE");
  }
  if (!o.trace_file.empty() && o.workload != "trace") {
    die("--replay only applies with --workload trace");
  }
  if (o.cluster && o.roundtrip) die("--cluster and --roundtrip conflict");
  if (o.cluster && o.scheme != "tpm") {
    die("--scheme only applies to the two-host testbed, not --cluster");
  }
  if (o.cluster_flags_used && !o.cluster) {
    die("--cluster-* and --fast-forward options require --cluster");
  }
  if (o.cluster && o.cluster_hosts < 2) die("--cluster-hosts must be >= 2");
  if (o.cluster && o.cluster_vms < 1) die("--cluster-vms must be >= 1");
  if (o.fullness < 0.0 || o.fullness > 1.0) {
    die("--fullness must be in [0, 1]");
  }
  // Probe every requested output path now (append mode: existing content is
  // left alone). An unwritable directory used to surface only after the
  // whole simulation had run.
  const auto check_writable = [&](const std::string& path, const char* flag) {
    if (path.empty()) return;
    std::ofstream probe{path, std::ios::app};
    if (!probe) die(std::string{flag} + ": cannot write '" + path + "'");
  };
  check_writable(o.chrome_trace, "--trace");
  check_writable(o.metrics_csv, "--metrics");
  check_writable(o.timeline, "--timeline");
  check_writable(o.flight_record, "--flight-record");
  check_writable(o.fleet_metrics, "--fleet-metrics");
  check_writable(o.profile_out, "--profile-out");
}

trace::IoTrace g_trace;  // must outlive the replay workload

/// Parse --fault (exits with usage-style error code 2 on a malformed spec).
fault::FaultSpec parse_fault_or_die(const Options& o) {
  if (o.fault_spec.empty()) return {};
  try {
    return fault::FaultSpec::parse(o.fault_spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: bad --fault spec: %s\n", e.what());
    std::exit(2);
  }
}

std::unique_ptr<workload::Workload> make_workload(const Options& o,
                                                  sim::Simulator& sim,
                                                  vm::Domain& vm) {
  if (o.workload == "idle") return nullptr;
  if (o.workload == "memhog") {
    return std::make_unique<workload::MemoryHogWorkload>(sim, vm, o.seed);
  }
  if (o.workload == "trace") {
    std::ifstream in{o.trace_file};
    if (!in) {
      std::fprintf(stderr, "error: cannot open trace '%s'\n",
                   o.trace_file.c_str());
      std::exit(2);
    }
    g_trace = trace::IoTrace::load(in);
    workload::TraceReplayParams p;
    p.loop = true;
    return std::make_unique<workload::TraceReplayWorkload>(sim, vm, g_trace,
                                                           o.seed, p);
  }
  if (o.workload == "web") {
    return std::make_unique<workload::WebServerWorkload>(sim, vm, o.seed);
  }
  if (o.workload == "stream") {
    return std::make_unique<workload::StreamingWorkload>(sim, vm, o.seed);
  }
  if (o.workload == "bonnie") {
    return std::make_unique<workload::DiabolicalWorkload>(sim, vm, o.seed);
  }
  if (o.workload == "build") {
    return std::make_unique<workload::KernelBuildWorkload>(sim, vm, o.seed);
  }
  std::fprintf(stderr, "error: unknown workload '%s'\n", o.workload.c_str());
  std::exit(2);
}

int run_baseline(const Options& o, scenario::Testbed& tb,
                 workload::Workload* wl, core::MigrationConfig cfg) {
  auto& sim = tb.sim();
  if (wl != nullptr) wl->start();
  sim.run_for(sim::Duration::from_seconds(o.warmup_s));
  baseline::BaselineReport rep;
  sim.spawn(
      [](sim::Simulator& s, scenario::Testbed& tb, core::MigrationConfig cfg,
         const std::string scheme, baseline::BaselineReport& out)
          -> sim::Task<void> {
        if (scheme == "freeze") {
          baseline::FreezeAndCopyMigration m{s, cfg, tb.vm(), tb.source(),
                                             tb.dest()};
          out = co_await m.run();
        } else if (scheme == "shared") {
          baseline::SharedStorageMigration m{s, cfg, tb.vm(), tb.source(),
                                             tb.dest()};
          out = co_await m.run();
        } else if (scheme == "ondemand") {
          baseline::OnDemandMigration m{s, cfg, tb.vm(), tb.source(),
                                        tb.dest()};
          out = co_await m.run(sim::Duration::seconds(120));
        } else {
          baseline::DeltaForwardMigration m{s, cfg, tb.vm(), tb.source(),
                                            tb.dest()};
          out = co_await m.run();
        }
      }(sim, tb, cfg, o.scheme, rep),
      "baseline");
  sim.run_for(sim::Duration::from_seconds(36000));
  if (wl != nullptr) {
    wl->request_stop();
    sim.run_for(sim::Duration::from_seconds(600));
  }
  std::printf("%s\n", rep.str().c_str());
  return rep.base.disk_consistent || o.scheme == "shared" ? 0 : 1;
}

cluster::SchedulePolicyKind parse_policy(const std::string& name) {
  if (name == "fifo") return cluster::SchedulePolicyKind::kFifo;
  if (name == "smallest-dirty") {
    return cluster::SchedulePolicyKind::kSmallestDirtyFirst;
  }
  if (name == "workload-cycle") {
    return cluster::SchedulePolicyKind::kWorkloadCycleAware;
  }
  std::fprintf(stderr, "error: unknown cluster policy '%s'\n", name.c_str());
  std::exit(2);
}

bool dump_obs(const Options& o, const obs::Registry* registry,
              const obs::Tracer* tracer,
              const obs::FlightRecorder* recorder);

int run_cluster(const Options& o) {
  sim::Simulator sim;
  sim.set_fast_forward(o.fast_forward);
  scenario::ClusterTestbedConfig bed;
  bed.hosts = o.cluster_hosts;
  // The two-host default (the paper's 40 GB device) is outsized for a
  // many-VM evacuation; shrink unless the user chose a size explicitly.
  bed.vbd_mib = o.disk_mib == 39070 ? 1024 : o.disk_mib;
  bed.guest_mem_mib = o.mem_mib == 512 ? 128 : o.mem_mib;
  scenario::ClusterTestbed tb{sim, bed};
  for (int i = 0; i < o.cluster_vms; ++i) {
    tb.add_vm("vm" + std::to_string(i), 0);
  }
  tb.prefill_disks();

  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  if (!o.chrome_trace.empty() || !o.metrics_csv.empty() ||
      !o.timeline.empty()) {
    registry = std::make_unique<obs::Registry>(
        sim, sim::Duration::from_seconds(o.metrics_interval_s));
    tracer = std::make_unique<obs::Tracer>(sim);
    tb.attach_obs(registry.get());
    registry->start_sampling();
  }
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!o.flight_record.empty()) {
    recorder = std::make_unique<obs::FlightRecorder>();
    if (o.flight_budget > 0) recorder->set_byte_budget(o.flight_budget);
  }
  std::unique_ptr<obs::Rollup> rollup;
  if (!o.fleet_metrics.empty()) {
    obs::RollupConfig rcfg;
    rcfg.hosts = static_cast<std::size_t>(o.cluster_hosts);
    rcfg.sample_interval = sim::Duration::from_seconds(o.metrics_interval_s);
    rollup = std::make_unique<obs::Rollup>(sim, rcfg);
    tb.attach_rollup(rollup.get());
    rollup->start_sampling();
  }

  auto cfg = tb.paper_migration_config();
  cfg.rate_limit_mibps = o.rate_limit;
  cfg.bitmap_kind = parse_bitmap(o.bitmap);

  cluster::OrchestratorConfig ocfg;
  ocfg.caps = {.per_source = 2, .per_dest = 2, .per_link = 1, .total = 8};
  ocfg.policy = parse_policy(o.cluster_policy);
  ocfg.registry = registry.get();
  ocfg.tracer = tracer.get();
  ocfg.recorder = recorder.get();
  ocfg.rollup = rollup.get();
  cluster::Orchestrator orch{sim, tb.manager(), ocfg};
  orch.submit_evacuation(tb.host(0), tb.hosts_except(0), cfg);
  const fault::FaultSpec fspec = parse_fault_or_die(o);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!fspec.empty()) {
    injector = std::make_unique<fault::FaultInjector>(sim, fspec, o.fault_seed);
    injector->attach_obs(registry.get(), tracer.get());
    // The evacuation's busiest path: host0 to its first evacuation target.
    injector->arm_path(tb.host(0).link_to(tb.host(1)),
                       tb.host(1).link_to(tb.host(0)), "host0-host1");
  }
  if (o.cluster_outage_s > 0.0) {
    tb.host(0).link_to(tb.host(1)).fail_at(
        sim::TimePoint::origin() + 1_s,
        sim::Duration::from_seconds(o.cluster_outage_s));
  }
  orch.drain();

  bool ok = orch.all_terminal();
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    const auto& j = orch.job(static_cast<cluster::JobId>(i));
    ok = ok && j.outcome.ok();
    std::printf("job %zu: %-8s %s->%s  %-15s attempts=%d total=%.3fs\n", i,
                j.request.domain->name().c_str(), j.request.from->name().c_str(),
                j.request.to->name().c_str(), core::to_string(j.outcome.status),
                j.attempts, j.outcome.report.total_time().to_seconds());
  }
  std::printf("summary: %llu completed, %llu failed, %llu retries, "
              "peak %d concurrent, done at %.3fs\n",
              static_cast<unsigned long long>(orch.jobs_completed()),
              static_cast<unsigned long long>(orch.jobs_failed()),
              static_cast<unsigned long long>(orch.retries()),
              orch.peak_running(), sim.now().to_seconds());

  if (rollup != nullptr) {
    // One more snapshot after the drain so the export ends on the terminal
    // fleet state (the in-run sampler parked when the calendar emptied).
    rollup->sample_now();
    std::ofstream out{o.fleet_metrics};
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   o.fleet_metrics.c_str());
      return 2;
    }
    rollup->write_csv(out);
  }
  if (!dump_obs(o, registry.get(), tracer.get(), recorder.get())) return 2;
  return ok ? 0 : 1;
}

/// Write whichever obs outputs were requested; returns false on I/O error.
bool dump_obs(const Options& o, const obs::Registry* registry,
              const obs::Tracer* tracer,
              const obs::FlightRecorder* recorder) {
  const auto open = [](const std::string& path, std::ofstream& out) {
    out.open(path);
    if (!out) std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return static_cast<bool>(out);
  };
  if (!o.chrome_trace.empty()) {
    std::ofstream out;
    if (!open(o.chrome_trace, out)) return false;
    obs::write_chrome_trace(out, *tracer);
  }
  if (!o.timeline.empty()) {
    std::ofstream out;
    if (!open(o.timeline, out)) return false;
    obs::write_timeline(out, *tracer);
  }
  if (!o.metrics_csv.empty()) {
    std::ofstream out;
    if (!open(o.metrics_csv, out)) return false;
    out << core::to_csv(*registry);
  }
  if (!o.flight_record.empty()) {
    std::ofstream out;
    if (!open(o.flight_record, out)) return false;
    obs::write_flight_record(out, *recorder);
  }
  return true;
}

/// Print the self-profile table and write the collapsed-stack file.
/// A no-op without --profile; returns false on I/O error.
bool dump_profile(const Options& o, const obs::Profiler* prof) {
  if (prof == nullptr) return true;
  std::printf("\n-- self-profile (wall clock, simulated results unaffected) --\n%s",
              prof->table().c_str());
  if (!o.profile_out.empty()) {
    std::ofstream out{o.profile_out};
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", o.profile_out.c_str());
      return false;
    }
    out << prof->collapsed();
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage(argv[0]);
    return 2;
  }
  validate_or_die(o);
  if (o.verbose) sim::Log::set_level(sim::LogLevel::kInfo);

  // The profiler observes wall time only; simulated behavior and every
  // simulated artifact are byte-identical with or without it (pinned by
  // tests/profiler_test.cpp).
  std::unique_ptr<obs::Profiler> profiler;
  if (o.profile) {
    profiler = std::make_unique<obs::Profiler>();
    profiler->activate();
  }

  if (o.cluster) {
    const int rc = run_cluster(o);
    if (!dump_profile(o, profiler.get())) return 2;
    return rc;
  }

  sim::Simulator sim;
  sim.set_debug_trace(o.sim_trace);
  scenario::TestbedConfig bed;
  bed.vbd_mib = o.disk_mib;
  bed.guest_mem_mib = o.mem_mib;
  bed.seed = o.seed;
  scenario::Testbed tb{sim, bed};
  const auto blocks = tb.source().disk().geometry().block_count;
  const auto used =
      static_cast<storage::BlockId>(static_cast<double>(blocks) * o.fullness);
  tb.source().disk().poke_affine({0, static_cast<std::uint32_t>(used)},
                                 0xC11C000000000000ull);

  auto cfg = tb.paper_migration_config();
  cfg.rate_limit_mibps = o.rate_limit;
  cfg.skip_unused_blocks = o.sparse;
  cfg.bitmap_kind = parse_bitmap(o.bitmap);

  // Observability is opt-in: without any of --trace/--metrics/--timeline the
  // engine's obs pointers stay null and the hot paths pay a single branch.
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  if (!o.chrome_trace.empty() || !o.metrics_csv.empty() ||
      !o.timeline.empty()) {
    registry = std::make_unique<obs::Registry>(
        sim, sim::Duration::from_seconds(o.metrics_interval_s));
    tracer = std::make_unique<obs::Tracer>(sim);
    tb.attach_obs(registry.get());
    registry->start_sampling();
    cfg.obs_registry = registry.get();
    cfg.obs_tracer = tracer.get();
  }
  // The flight recorder is independent of the sampled-metrics/trace sinks:
  // it keeps exact aggregates of its own and costs nothing when off.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!o.flight_record.empty()) {
    recorder = std::make_unique<obs::FlightRecorder>();
    if (o.flight_budget > 0) recorder->set_byte_budget(o.flight_budget);
    cfg.obs_recorder = recorder.get();
  }

  const fault::FaultSpec fspec = parse_fault_or_die(o);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!fspec.empty()) {
    injector = std::make_unique<fault::FaultInjector>(sim, fspec, o.fault_seed);
    injector->attach_obs(registry.get(), tracer.get());
    injector->arm_path(tb.source().link_to(tb.dest()),
                       tb.dest().link_to(tb.source()), "src-dst");
  }

  const auto wl = make_workload(o, sim, tb.vm());
  if (o.progress) {
    tb.manager().set_progress_listener(
        [&sim](core::TpmMigration::Phase p, double f) {
          std::fprintf(stderr, "[%10.3fs] %-14s %5.1f%%\n",
                       sim.now().to_seconds(),
                       core::TpmMigration::phase_name(p), f * 100.0);
        });
  }

  int rc;
  if (o.scheme != "tpm") {
    rc = run_baseline(o, tb, wl.get(), cfg);
  } else if (o.roundtrip) {
    const auto [out, back] = tb.run_tpm_then_im(
        wl.get(), sim::Duration::from_seconds(o.warmup_s),
        sim::Duration::from_seconds(o.dwell_s),
        sim::Duration::from_seconds(o.post_s), cfg);
    std::printf("== outbound ==\n%s\n\n== incremental return ==\n%s\n",
                out.str().c_str(), back.str().c_str());
    rc = out.disk_consistent && back.disk_consistent ? 0 : 1;
  } else {
    const auto rep =
        tb.run_tpm(wl.get(), sim::Duration::from_seconds(o.warmup_s),
                   sim::Duration::from_seconds(o.post_s), cfg);
    if (o.json) {
      std::printf("%s\n", core::to_json(rep).c_str());
    } else {
      std::printf("%s\n", rep.str().c_str());
      if (wl != nullptr) {
        const auto d = core::measure_disruption(
            wl->throughput().series(), sim::TimePoint::origin() + 10_s,
            rep.started, rep.started, rep.synchronized, 0.8);
        std::printf("disruption: %.1f s of %.1f s below 80%% of baseline "
                    "(worst sample %.0f%%)\n",
                    d.disrupted_time.to_seconds(), d.window.to_seconds(),
                    d.worst_ratio * 100.0);
      }
    }
    rc = rep.disk_consistent && rep.memory_consistent ? 0 : 1;
  }

  if (!dump_obs(o, registry.get(), tracer.get(), recorder.get())) return 2;
  if (!dump_profile(o, profiler.get())) return 2;
  return rc;
}

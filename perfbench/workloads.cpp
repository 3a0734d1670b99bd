// The three benchmark workloads. Each builds its scenario through the
// library's public entry points (scenario testbeds, MigrationManager,
// Orchestrator, FaultInjector, the obs sinks), times setup and the run call
// from outside with SpanLog, and afterwards reads every layer's public
// counters. Nothing here reaches into library internals.

#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "cluster/orchestrator.hpp"
#include "core/migration_manager.hpp"
#include "core/report_io.hpp"
#include "fault/fault_spec.hpp"
#include "fault/injector.hpp"
#include "hypervisor/host.hpp"
#include "net/link.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "obs/tracer.hpp"
#include "scenario/cluster_testbed.hpp"
#include "scenario/testbed.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "workloads/diabolical.hpp"
#include "workloads/steady_writer.hpp"
#include "workloads/streaming.hpp"
#include "workloads/web_server.hpp"

namespace perfbench {
namespace {

using namespace vmig;
using namespace vmig::sim::literals;

/// FNV-1a over every simulated output of a repetition, field by field.
class Fingerprint {
 public:
  void add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 1099511628211ull;
  }
  void add(std::uint64_t v) { add(std::to_string(v)); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Independent, reproducible seed for stream `stream` of benchmark seed
/// `seed` (guest i's RNG, the fault RNG, ...).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + stream;
  return sim::splitmix64(s);
}

/// Span names of the TPM phases, in TraceReadings::phase_ms order.
constexpr const char* kPhaseSpans[] = {"phase.disk_precopy",
                                       "phase.memory_precopy", "phase.freeze",
                                       "phase.postcopy"};

/// Host time per TPM phase, stamped from MigrationManager's progress
/// listener into `log`. The interval between two stamps is charged to the
/// phase the earlier stamp announced; with overlapping migrations that is
/// the phase most recently entered by any of them.
class PhaseClock {
 public:
  explicit PhaseClock(SpanLog& log) : log_{log} {}

  /// Stamp every migration `mgr` runs; the clock must outlive `mgr`'s runs.
  void listen(core::MigrationManager& mgr) {
    mgr.set_progress_listener(
        [this](core::TpmMigration::Phase p, double) { on_progress(p); });
  }
  void finish() {
    close(log_.now_ns());
    current_ = -1;
  }

 private:
  void on_progress(core::TpmMigration::Phase p) {
    const int idx = index_of(p);
    if (idx == current_) return;  // periodic disk pre-copy progress
    const std::uint64_t now = log_.now_ns();
    close(now);
    current_ = idx;
    since_ = now;
  }
  static int index_of(core::TpmMigration::Phase p) {
    using P = core::TpmMigration::Phase;
    switch (p) {
      case P::kDiskPrecopy: return 0;
      case P::kMemoryPrecopy: return 1;
      case P::kFreeze: return 2;
      case P::kPostCopy: return 3;
      default: return -1;
    }
  }
  void close(std::uint64_t now) {
    if (current_ >= 0) log_.add(kPhaseSpans[current_], now - since_);
  }

  SpanLog& log_;
  int current_ = -1;
  std::uint64_t since_ = 0;
};

/// Runs `fn` with `prof` active when the repetition is traced.
template <typename Fn>
void profiled(bool traced, obs::Profiler& prof, Fn&& fn) {
  if (traced) prof.activate();
  fn();
  if (traced) obs::Profiler::deactivate();
}

void read_profile(const obs::Profiler& prof, TraceReadings& out) {
  for (std::size_t c = 0; c < kProfCategories; ++c) {
    out.prof[c] = prof.stats(static_cast<obs::ProfCategory>(c));
  }
}

void count_report(const core::MigrationReport& r, LayerCounts& c) {
  c.blocks_first_pass += r.blocks_first_pass;
  c.blocks_retransferred += r.blocks_retransferred;
  c.disk_iterations += static_cast<std::uint64_t>(r.disk_iterations);
  c.blocks_pushed += r.blocks_pushed;
  c.blocks_pulled += r.blocks_pulled;
  c.pull_retries += r.postcopy_pull_retries;
  c.reads_blocked += r.postcopy_reads_blocked;
  c.fallback_freezes += r.postcopy_fallback_freezes;
}

MigrationSample sample_of(const core::MigrationReport& r) {
  MigrationSample s;
  s.total_s = r.total_time().to_seconds();
  s.downtime_ms = r.downtime().to_millis();
  s.mib = r.total_mib();
  s.stall_ms = (r.postcopy_read_stall_total + r.postcopy_fallback_freeze_time)
                   .to_millis();
  return s;
}

bool consistent(const core::MigrationReport& r) {
  return r.disk_consistent && r.memory_consistent;
}

/// Storage, network and guest-backend counters over `hosts` (materialized
/// hosts only) and the guests that may have backends on them.
void count_hosts(const std::vector<hv::Host*>& hosts,
                 const std::vector<vm::Domain*>& guests, LayerCounts& c) {
  std::uint64_t busiest = 0;
  for (hv::Host* h : hosts) {
    const storage::DiskScheduler& disk = h->disk().scheduler();
    c.disk_requests += disk.requests_completed();
    c.disk_busy_s += disk.busy_time().to_seconds();
    if (disk.latency().count() > 0) {
      c.disk_latency_p99_ms = std::max(
          c.disk_latency_p99_ms, disk.latency().quantile(0.99).to_millis());
      if (disk.requests_completed() > busiest) {
        busiest = disk.requests_completed();
        c.disk_latency_p50_ms = disk.latency().quantile(0.5).to_millis();
      }
    }
    for (const hv::Host* peer : hosts) {
      if (peer == h) continue;
      if (const net::Link* l = h->find_link(*peer)) {
        c.net_bytes += l->bytes_sent();
        c.net_messages += l->messages_sent();
        c.net_busy_s += l->busy_time().to_seconds();
        c.net_dropped += l->messages_dropped();
      }
    }
    for (const vm::Domain* g : guests) {
      if (const vm::BlkBackend* be = h->find_backend(g->id())) {
        c.guest_writes += be->guest_writes();
        c.guest_reads += be->guest_reads();
        c.dirty_marks += be->dirty_marks_total();
      }
    }
  }
}

void finish_setup(RepResult& out) {
  out.construct_ms = out.spans.total_ms("construct");
  out.register_ms = out.spans.total_ms("register");
  out.prefill_ms = out.spans.total_ms("prefill");
  out.submit_ms = out.spans.total_ms("submit");
  out.setup_s = (out.construct_ms + out.register_ms + out.prefill_ms +
                 out.submit_ms) /
                1e3;
  out.wall_s = out.spans.total_ms("run") / 1e3;
  for (std::size_t p = 0; p < out.trace.phase_ms.size(); ++p) {
    out.trace.phase_ms[p] = out.spans.total_ms(kPhaseSpans[p]);
  }
}

/// Orchestrated runs: per-job samples, failures, makespan and fingerprint
/// from the orchestrator's final job table.
void collect_jobs(const cluster::Orchestrator& orch, RepResult& out,
                  Fingerprint& fp) {
  out.jobs = orch.job_count();
  sim::TimePoint first = sim::TimePoint::max();
  sim::TimePoint last{};
  for (std::size_t i = 0; i < orch.job_count(); ++i) {
    const cluster::MigrationJob& j = orch.job(static_cast<cluster::JobId>(i));
    const core::MigrationReport& r = j.outcome.report;
    fp.add(core::to_json(r));
    fp.add(core::to_string(j.outcome.status));
    fp.add(static_cast<std::uint64_t>(j.attempts));
    if (!j.terminal() || !j.outcome.ok()) ++out.failed;
    MigrationSample s = sample_of(r);
    s.queue_wait_s = (r.started - j.submitted).to_seconds();
    s.attempts = j.attempts;
    out.migrations.push_back(s);
    count_report(r, out.counts);
    first = std::min(first, j.submitted);
    last = std::max(last, r.synchronized);
  }
  for (const cluster::JobId id : orch.completion_order()) fp.add(id);
  out.sim_makespan_s = orch.job_count() > 0 ? (last - first).to_seconds() : 0;
  out.counts.retries = orch.retries();
  out.counts.deferrals = orch.deferrals();
  out.counts.peak_running = static_cast<std::uint64_t>(orch.peak_running());
}

std::vector<hv::Host*> materialized_hosts(scenario::ClusterTestbed& tb) {
  std::vector<hv::Host*> hosts;
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    if (tb.host_materialized(i)) hosts.push_back(&tb.host(i));
  }
  return hosts;
}

std::vector<vm::Domain*> materialized_vms(scenario::ClusterTestbed& tb) {
  std::vector<vm::Domain*> vms;
  for (std::size_t i = 0; i < tb.vm_count(); ++i) {
    if (tb.vm_materialized(i)) vms.push_back(&tb.vm(i));
  }
  return vms;
}

/// Jobs, event count and host counters of an orchestrated run.
void collect_cluster(const sim::Simulator& sim, scenario::ClusterTestbed& tb,
                     const cluster::Orchestrator& orch, RepResult& out,
                     Fingerprint& fp) {
  collect_jobs(orch, out, fp);
  fp.add(sim.events_processed());
  out.counts.events = sim.events_processed();
  out.counts.ff_settles = sim.ff_settles();
  count_hosts(materialized_hosts(tb), materialized_vms(tb), out.counts);
}

// ------------------------------------------------------------ paper_roundtrip

/// The three Table II guests, in the paper's order.
std::unique_ptr<workload::Workload> make_paper_guest(int which,
                                                     sim::Simulator& sim,
                                                     vm::Domain& vm,
                                                     std::uint64_t seed) {
  switch (which) {
    case 0:
      return std::make_unique<workload::WebServerWorkload>(sim, vm, seed);
    case 1:
      return std::make_unique<workload::StreamingWorkload>(sim, vm, seed);
    default: {
      // Bonnie++'s scratch file in the paper's IM run covers ~911 MB.
      workload::DiabolicalParams p;
      p.file_mib = 900;
      return std::make_unique<workload::DiabolicalWorkload>(sim, vm, seed, p);
    }
  }
}

}  // namespace

RepResult run_paper_roundtrip(const RunSpec& spec) {
  RepResult out;
  Fingerprint fp;
  obs::Profiler prof;
  // Declared before the testbeds so it outlives their progress listeners.
  PhaseClock phases{out.spans};
  for (int g = 0; g < 3; ++g) {
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<scenario::Testbed> tb;
    std::unique_ptr<workload::Workload> wl;
    {
      ScopedSpan span{out.spans, "construct"};
      sim = std::make_unique<sim::Simulator>();
      scenario::TestbedConfig cfg;
      if (spec.size == Size::kSmall) cfg.vbd_mib = 1024;
      tb = std::make_unique<scenario::Testbed>(*sim, cfg);
      wl = make_paper_guest(g, *sim, tb->vm(),
                            derive_seed(spec.seed, static_cast<unsigned>(g)));
    }
    {
      ScopedSpan span{out.spans, "prefill"};
      tb->prefill_disk();
    }

    if (spec.traced) phases.listen(tb->manager());
    // Table II's schedule: warm up, TPM out, dwell at the destination long
    // enough for the guest to dirty its steady-state set, IM back.
    const sim::Duration dwell = g == 2 ? 300_s : 1500_s;
    std::pair<core::MigrationReport, core::MigrationReport> reps;
    {
      ScopedSpan span{out.spans, "run"};
      profiled(spec.traced, prof, [&] {
        reps = tb->run_tpm_then_im(wl.get(), 60_s, dwell, 30_s,
                                   tb->paper_migration_config());
      });
      phases.finish();
    }

    for (const core::MigrationReport* r : {&reps.first, &reps.second}) {
      fp.add(core::to_json(*r));
      out.migrations.push_back(sample_of(*r));
      count_report(*r, out.counts);
      ++out.jobs;
      if (!consistent(*r)) ++out.failed;
    }
    out.sim_makespan_s +=
        (reps.second.synchronized - reps.first.started).to_seconds();
    fp.add(sim->events_processed());
    out.counts.events += sim->events_processed();
    out.counts.ff_settles += sim->ff_settles();
    count_hosts({&tb->source(), &tb->dest()}, {&tb->vm()}, out.counts);
  }
  read_profile(prof, out.trace);
  finish_setup(out);
  out.fingerprint = fp.value();
  return out;
}

// ------------------------------------------------------------------ evac_10k

RepResult run_evac_10k(const RunSpec& spec) {
  // bench_scale's largest point (its 1024-host point at small size): ~10
  // cold VMs registered per host, host0's hosts/8 guests evacuated to the
  // 64 least-loaded hosts.
  const int hosts = spec.size == Size::kSmall ? 1024 : 10000;
  const int guests = hosts / 8;
  constexpr int kColdVmsPerHost = 10;
  constexpr std::size_t kMaxDestinations = 64;

  RepResult out;
  Fingerprint fp;
  obs::Profiler prof;
  PhaseClock phases{out.spans};  // outlives the testbed
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<scenario::ClusterTestbed> tb;
  std::vector<std::unique_ptr<workload::SteadyWriter>> writers;
  std::unique_ptr<cluster::Orchestrator> orch;
  {
    ScopedSpan span{out.spans, "construct"};
    sim = std::make_unique<sim::Simulator>();
    sim->set_fast_forward(true);
    scenario::ClusterTestbedConfig bed;
    bed.hosts = hosts;
    bed.vbd_mib = hosts >= 4096 ? 32 : 128;  // as bench_scale
    bed.guest_mem_mib = 32;
    tb = std::make_unique<scenario::ClusterTestbed>(*sim, bed);
  }
  {
    ScopedSpan span{out.spans, "register"};
    for (int i = 0; i < guests; ++i) tb->add_vm("vm" + std::to_string(i), 0);
    for (int h = 0; h < hosts; ++h) {
      for (int c = 0; c < kColdVmsPerHost; ++c) {
        tb->register_vm("cold" + std::to_string(h) + "." + std::to_string(c),
                        static_cast<std::size_t>(h));
      }
    }
  }
  {
    ScopedSpan span{out.spans, "prefill"};
    tb->prefill_disks();
  }
  {
    ScopedSpan span{out.spans, "submit"};
    // bench_scale's writers exactly. SteadyWriter has no RNG, so the seed
    // changes nothing on this workload.
    writers.reserve(static_cast<std::size_t>(guests));
    for (int i = 0; i < guests; ++i) {
      workload::SteadyWriterConfig wc;
      wc.until = sim::TimePoint::origin() + 20_s;
      writers.push_back(std::make_unique<workload::SteadyWriter>(
          *sim, tb->vm(static_cast<std::size_t>(i)), wc));
      writers.back()->start();
    }
    cluster::OrchestratorConfig cfg;
    cfg.caps = {.per_source = 4, .per_dest = 2, .per_link = 1, .total = 16};
    cfg.policy = cluster::SchedulePolicyKind::kFifo;
    cfg.poll_interval = 50_ms;
    orch = std::make_unique<cluster::Orchestrator>(*sim, tb->manager(), cfg);
    orch->submit_evacuation(
        tb->host(0),
        tb->pick_destinations(
            0, std::min<std::size_t>(static_cast<std::size_t>(hosts) - 1,
                                     kMaxDestinations)),
        tb->paper_migration_config());
  }

  if (spec.traced) phases.listen(tb->manager());
  {
    ScopedSpan span{out.spans, "run"};
    profiled(spec.traced, prof, [&] { orch->drain(); });
    phases.finish();
  }

  collect_cluster(*sim, *tb, *orch, out, fp);
  read_profile(prof, out.trace);
  finish_setup(out);
  out.fingerprint = fp.value();
  return out;
}

// ------------------------------------------------------------ evac_chaos_obs

namespace {

/// A mixed fault schedule for one evacuation path, drawn from `rng`:
/// outages, message loss, bandwidth degradation and extra latency, all
/// inside the evacuation's first `span_ms` (a window that outlives the run
/// would keep the simulator and its samplers going until it closes).
std::string chaos_spec(sim::Rng& rng, int span_ms) {
  std::string s;
  char buf[96];
  const auto at = [&] {
    return rng.uniform_u64(static_cast<std::uint64_t>(span_ms));
  };
  for (int i = 0; i < 3; ++i) {
    std::snprintf(buf, sizeof buf, "outage@%llums+%llums; ",
                  static_cast<unsigned long long>(at()),
                  static_cast<unsigned long long>(3 + rng.uniform_u64(28)));
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "loss@0ms+%dms:%.3f; ", span_ms,
                rng.uniform_double(0.10, 0.25));
  s += buf;
  std::snprintf(buf, sizeof buf, "degrade@%llums+%llums:%.2f; ",
                static_cast<unsigned long long>(at()),
                static_cast<unsigned long long>(40 + rng.uniform_u64(80)),
                rng.uniform_double(0.3, 0.6));
  s += buf;
  std::snprintf(buf, sizeof buf, "latency@%llums+%llums:%lluus",
                static_cast<unsigned long long>(at()),
                static_cast<unsigned long long>(40 + rng.uniform_u64(80)),
                static_cast<unsigned long long>(500 + rng.uniform_u64(1500)));
  s += buf;
  return s;
}

}  // namespace

RepResult run_evac_chaos_obs(const RunSpec& spec) {
  const bool small = spec.size == Size::kSmall;
  const int hosts = small ? 9 : 33;
  const int guests = small ? 8 : 64;
  constexpr int kFaultSpanMs = 6000;

  RepResult out;
  Fingerprint fp;
  obs::Profiler prof;
  PhaseClock phases{out.spans};  // outlives the testbed
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<scenario::ClusterTestbed> tb;
  std::unique_ptr<obs::Registry> reg;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::Rollup> rollup;
  std::vector<std::unique_ptr<workload::DiabolicalWorkload>> wls;
  std::vector<std::unique_ptr<fault::FaultInjector>> faults;
  std::unique_ptr<cluster::Orchestrator> orch;
  {
    ScopedSpan span{out.spans, "construct"};
    sim = std::make_unique<sim::Simulator>();
    // fault_test's chaos hardware: fast disks and LAN keep each 16 MiB
    // migration in the millisecond range.
    scenario::ClusterTestbedConfig bed;
    bed.hosts = hosts;
    bed.vbd_mib = 16;
    bed.guest_mem_mib = 4;
    bed.disk.seq_read_mbps = 800.0;
    bed.disk.seq_write_mbps = 700.0;
    bed.disk.seek = 100_us;
    bed.disk.request_overhead = 5_us;
    bed.lan.bandwidth_mibps = 1000.0;
    bed.lan.latency = 50_us;
    tb = std::make_unique<scenario::ClusterTestbed>(*sim, bed);
    reg = std::make_unique<obs::Registry>(*sim, 10_ms);
    tracer = std::make_unique<obs::Tracer>(*sim);
    recorder = std::make_unique<obs::FlightRecorder>();
    recorder->set_byte_budget(65536);
    obs::RollupConfig rcfg;
    rcfg.hosts = static_cast<std::size_t>(hosts);
    rcfg.hosts_per_rack = 8;
    rcfg.sample_interval = 10_ms;
    rollup = std::make_unique<obs::Rollup>(*sim, rcfg);
    tb->attach_obs(reg.get());
    tb->attach_rollup(rollup.get());
  }
  {
    ScopedSpan span{out.spans, "register"};
    for (int i = 0; i < guests; ++i) tb->add_vm("vm" + std::to_string(i), 0);
  }
  {
    ScopedSpan span{out.spans, "prefill"};
    tb->prefill_disks();
  }
  {
    ScopedSpan span{out.spans, "submit"};
    // A fixed number of Bonnie++ cycles (about a second each here) keeps
    // the guests busy through the evacuation and their share of the work
    // the same whatever the faults do to the makespan.
    workload::DiabolicalParams guest;
    guest.max_cycles = 4;
    for (int i = 0; i < guests; ++i) {
      wls.push_back(std::make_unique<workload::DiabolicalWorkload>(
          *sim, tb->vm(static_cast<std::size_t>(i)),
          derive_seed(spec.seed, static_cast<unsigned>(i)), guest));
    }
    const std::vector<hv::Host*> dests = tb->hosts_except(0);
    sim::Rng fault_rng{derive_seed(spec.seed, 200)};
    for (hv::Host* d : dests) {
      auto inj = std::make_unique<fault::FaultInjector>(
          *sim, fault::FaultSpec::parse(chaos_spec(fault_rng, kFaultSpanMs)),
          fault_rng.next_u64());
      inj->attach_obs(reg.get(), tracer.get());
      inj->arm_path(tb->host(0).link_to(*d), d->link_to(tb->host(0)),
                    "host0-" + d->name());
      faults.push_back(std::move(inj));
    }
    reg->start_sampling();
    rollup->start_sampling();

    core::MigrationConfig mcfg = core::MigrationConfig::build()
                                     .bitmap(core::BitmapKind::kFlat)
                                     .disk_iterations(4, 64)
                                     .pull_retry(2_ms)
                                     .recovery_interval(500_us)
                                     .freeze_fallback(20_ms)
                                     .done();
    cluster::OrchestratorConfig cfg;
    cfg.caps = {.per_source = 4, .per_dest = 2, .per_link = 1, .total = 16};
    cfg.retry = {.max_attempts = 8, .initial_backoff = 10_ms};
    cfg.policy = cluster::SchedulePolicyKind::kWorkloadCycleAware;
    cfg.poll_interval = 10_ms;
    cfg.max_deferrals = 8;
    cfg.registry = reg.get();
    cfg.tracer = tracer.get();
    cfg.recorder = recorder.get();
    cfg.rollup = rollup.get();
    orch = std::make_unique<cluster::Orchestrator>(*sim, tb->manager(), cfg);
    for (auto& wl : wls) wl->start();
    orch->submit_evacuation(tb->host(0), dests, mcfg);
  }

  if (spec.traced) phases.listen(tb->manager());
  {
    ScopedSpan span{out.spans, "run"};
    profiled(spec.traced, prof, [&] { orch->drain(); });
    phases.finish();
  }

  collect_cluster(*sim, *tb, *orch, out, fp);
  rollup->sample_now();
  std::ostringstream sinks;
  obs::write_flight_record(sinks, *recorder);
  rollup->write_csv(sinks);
  core::write_csv(sinks, *reg);
  obs::write_chrome_trace(sinks, *tracer);
  fp.add(sinks.str());

  for (const auto& inj : faults) {
    out.counts.fault_windows += inj->windows_applied();
    out.counts.fault_dropped += inj->messages_dropped();
  }
  out.counts.recorder_events = recorder->recorded();
  out.counts.recorder_sampled_out = recorder->sampled_out();
  read_profile(prof, out.trace);
  finish_setup(out);
  out.fingerprint = fp.value();
  return out;
}

}  // namespace perfbench

// vmig_perfbench: one workload of the end-to-end benchmark, repeated for a
// fixed wall-clock budget. Prints a human-readable report, then one JSON
// line with every metric (README.md lists them with the layer each one
// measures). run.py builds this program and turns that line into the
// benchmark's result.
//
// Usage: vmig_perfbench --workload NAME [--seed N] [--seconds S]
//                       [--trace 0|1] [--size full|small]
//   --trace 1     alternate untraced and traced repetitions; the traced ones
//                 run under obs::Profiler and stamp TPM phases, giving the
//                 per-layer self times and per-unit costs
//   --size small  reduced scale for the repeatability test

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using vmig::obs::ProfCategory;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Runner = RepResult (*)(const RunSpec&);

Runner runner_for(std::string_view name) {
  if (name == "paper_roundtrip") return run_paper_roundtrip;
  if (name == "evac_10k") return run_evac_10k;
  if (name == "evac_chaos_obs") return run_evac_chaos_obs;
  return nullptr;
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it, or the max
/// when there are fewer than 100 samples.
std::pair<const char*, double> tail(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n >= 1000) return {"p99", quantile(v, 0.99)};
  if (n >= 200) return {"p95", quantile(v, 0.95)};
  if (n >= 100) return {"p90", quantile(v, 0.90)};
  return {"max", quantile(v, 1.0)};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename Fn>
std::vector<double> each(const std::vector<RepResult>& reps, Fn fn) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult& r : reps) v.push_back(fn(r));
  return v;
}

template <typename Fn>
std::vector<double> each_migration(const RepResult& r, Fn fn) {
  std::vector<double> v;
  v.reserve(r.migrations.size());
  for (const MigrationSample& m : r.migrations) v.push_back(fn(m));
  return v;
}

const vmig::obs::ProfCategoryStats& cat(const RepResult& r, ProfCategory c) {
  return r.trace.prof[static_cast<std::size_t>(c)];
}

double self_ms(const RepResult& r, ProfCategory c) {
  return static_cast<double>(cat(r, c).exclusive_ns) / 1e6;
}

/// Every metric of the run. `plain` are the untraced repetitions, `traced`
/// the profiled ones (empty unless --trace 1). Simulated values and counts
/// come from the first repetition: the fingerprint check has already shown
/// every repetition produced the same simulated outputs.
std::vector<Metric> metrics_of(const std::vector<RepResult>& plain,
                               const std::vector<RepResult>& traced) {
  std::vector<Metric> m;
  const RepResult& r = plain.front();
  const LayerCounts& c = r.counts;
  const double wall_s = median(each(plain, [](const RepResult& x) {
    return x.wall_s;
  }));
  // Setup runs before the profiler is activated, so both kinds of
  // repetition time the same setup work: pool them.
  const auto pooled = [&](double RepResult::*field) {
    std::vector<double> v;
    for (const auto* reps : {&plain, &traced}) {
      for (const RepResult& x : *reps) v.push_back(x.*field);
    }
    return median(std::move(v));
  };

  const auto total = each_migration(r, [](const MigrationSample& s) {
    return s.total_s;
  });
  const auto down = each_migration(r, [](const MigrationSample& s) {
    return s.downtime_ms;
  });
  double mib = 0;
  double stall_ms = 0;
  double attempts = 0;
  for (const MigrationSample& s : r.migrations) {
    mib += s.mib;
    stall_ms += s.stall_ms;
    attempts += s.attempts;
  }
  const double jobs = static_cast<double>(r.jobs);

  // ---- end to end ----
  m.push_back({"wall_s", wall_s, "s"});
  m.push_back({"setup_s", pooled(&RepResult::setup_s), "s"});
  m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  m.push_back({"sim_makespan_s", r.sim_makespan_s, "sim_s"});
  m.push_back({"sim_migration_s.p50", quantile(total, 0.5), "sim_s"});
  m.push_back({"sim_migration_s.tail", tail(total).second, "sim_s"});
  m.push_back({"sim_downtime_ms.p50", quantile(down, 0.5), "sim_ms"});
  m.push_back({"sim_downtime_ms.tail", tail(down).second, "sim_ms"});
  m.push_back({"migrated_mib", mib, "MiB"});
  m.push_back({"guest_stall_ms", stall_ms, "sim_ms"});
  m.push_back({"failed_frac", ratio(static_cast<double>(r.failed), jobs),
               "fraction"});
  m.push_back({"migrations", static_cast<double>(r.migrations.size()),
               "count"});

  // ---- per layer: exact counters of every layer ----
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
  m.push_back({"simcore.events", u64(c.events), "count"});
  m.push_back({"simcore.ff_settles", u64(c.ff_settles), "count"});
  m.push_back({"simcore.ns_per_event", ratio(wall_s * 1e9, u64(c.events)),
               "ns"});
  m.push_back({"tpm.blocks_first_pass", u64(c.blocks_first_pass), "count"});
  m.push_back({"tpm.blocks_retransferred", u64(c.blocks_retransferred),
               "count"});
  m.push_back({"tpm.disk_iterations", u64(c.disk_iterations), "count"});
  m.push_back({"tpm.retransfer_ratio",
               ratio(u64(c.blocks_retransferred), u64(c.blocks_first_pass)),
               "ratio"});
  m.push_back({"postcopy.blocks_pushed", u64(c.blocks_pushed), "count"});
  m.push_back({"postcopy.blocks_pulled", u64(c.blocks_pulled), "count"});
  m.push_back({"postcopy.pull_retries", u64(c.pull_retries), "count"});
  m.push_back({"postcopy.reads_blocked", u64(c.reads_blocked), "count"});
  m.push_back({"postcopy.fallback_freezes", u64(c.fallback_freezes),
               "count"});
  m.push_back({"storage.requests", u64(c.disk_requests), "count"});
  m.push_back({"storage.busy_s", c.disk_busy_s, "sim_s"});
  m.push_back({"storage.latency_ms.p50", c.disk_latency_p50_ms, "sim_ms"});
  m.push_back({"storage.latency_ms.p99", c.disk_latency_p99_ms, "sim_ms"});
  m.push_back({"net.bytes", u64(c.net_bytes), "B"});
  m.push_back({"net.messages", u64(c.net_messages), "count"});
  m.push_back({"net.busy_s", c.net_busy_s, "sim_s"});
  m.push_back({"net.messages_dropped", u64(c.net_dropped), "count"});
  m.push_back({"vm.guest_writes", u64(c.guest_writes), "count"});
  m.push_back({"vm.guest_reads", u64(c.guest_reads), "count"});
  m.push_back({"vm.dirty_marks", u64(c.dirty_marks), "count"});
  const auto waits = each_migration(r, [](const MigrationSample& s) {
    return s.queue_wait_s;
  });
  m.push_back({"cluster.queue_wait_s.p50", quantile(waits, 0.5), "sim_s"});
  m.push_back({"cluster.queue_wait_s.tail", tail(waits).second, "sim_s"});
  m.push_back({"cluster.attempts_per_job", ratio(attempts, jobs), "ratio"});
  m.push_back({"cluster.retries", u64(c.retries), "count"});
  m.push_back({"cluster.deferrals", u64(c.deferrals), "count"});
  m.push_back({"cluster.peak_running", u64(c.peak_running), "count"});
  m.push_back({"fault.windows_applied", u64(c.fault_windows), "count"});
  m.push_back({"fault.messages_dropped", u64(c.fault_dropped), "count"});
  m.push_back({"obs.recorder_events", u64(c.recorder_events), "count"});
  m.push_back({"obs.recorder_sampled_out", u64(c.recorder_sampled_out),
               "count"});
  m.push_back({"scenario.construct_ms", pooled(&RepResult::construct_ms),
               "ms"});
  m.push_back({"scenario.register_ms", pooled(&RepResult::register_ms),
               "ms"});
  m.push_back({"scenario.prefill_ms", pooled(&RepResult::prefill_ms), "ms"});
  m.push_back({"scenario.submit_ms", pooled(&RepResult::submit_ms), "ms"});
  if (traced.empty()) return m;

  // ---- per layer: traced repetitions (profiler self times, per-unit
  // costs, phase stamps); work counts are exact, times are medians ----
  const RepResult& t = traced.front();
  const auto med_self = [&](ProfCategory pc) {
    return median(each(traced, [pc](const RepResult& x) {
      return self_ms(x, pc);
    }));
  };
  const double scanned = u64(cat(t, ProfCategory::kBitmapScan).events);
  const double ticks = u64(cat(t, ProfCategory::kOrchestratorTick).calls);
  m.push_back({"simcore.dispatch_self_ms", med_self(ProfCategory::kSimDispatch),
               "ms"});
  m.push_back({"bitmap.blocks_scanned", scanned, "count"});
  m.push_back({"bitmap.scan_self_ms", med_self(ProfCategory::kBitmapScan),
               "ms"});
  m.push_back({"bitmap.scan_ns_per_block",
               ratio(med_self(ProfCategory::kBitmapScan) * 1e6, scanned),
               "ns"});
  m.push_back({"bitmap.marks", u64(cat(t, ProfCategory::kBitmapMark).events),
               "count"});
  m.push_back({"bitmap.mark_self_ms", med_self(ProfCategory::kBitmapMark),
               "ms"});
  m.push_back({"tpm.iteration_self_ms",
               med_self(ProfCategory::kDiskIteration), "ms"});
  static constexpr const char* kPhases[] = {"disk_precopy", "memory_precopy",
                                            "freeze", "postcopy"};
  for (std::size_t p = 0; p < 4; ++p) {
    m.push_back({std::string{"tpm.phase_wall_ms."} + kPhases[p],
                 median(each(traced, [p](const RepResult& x) {
                   return x.trace.phase_ms[p];
                 })),
                 "ms"});
  }
  m.push_back({"postcopy.pull_self_ms", med_self(ProfCategory::kPostCopyPull),
               "ms"});
  m.push_back({"cluster.ticks", ticks, "count"});
  m.push_back({"cluster.tick_self_ms",
               med_self(ProfCategory::kOrchestratorTick), "ms"});
  m.push_back({"cluster.ns_per_job_tick",
               ratio(med_self(ProfCategory::kOrchestratorTick) * 1e6,
                     ticks * jobs),
               "ns"});
  m.push_back({"obs.recorder_emit_self_ms",
               med_self(ProfCategory::kRecorderEmit), "ms"});
  m.push_back({"other_self_ms", med_self(ProfCategory::kOther), "ms"});
  const double traced_wall = median(each(traced, [](const RepResult& x) {
    return x.wall_s;
  }));
  m.push_back({"trace.overhead_frac", ratio(traced_wall, wall_s) - 1,
               "fraction"});
  return m;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return res.ec == std::errc{} ? std::string(buf, res.ptr) : "0";
}

void print_report(const Options& opt, const std::vector<RepResult>& plain,
                  const std::vector<RepResult>& traced,
                  const std::vector<Metric>& metrics) {
  const RepResult& r = plain.front();
  std::printf("workload %s  seed %llu  size %s  repetitions %zu untraced"
              " + %zu traced\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.size == Size::kSmall ? "small" : "full", plain.size(),
              traced.size());
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(r.fingerprint));
  const auto total = each_migration(r, [](const MigrationSample& s) {
    return s.total_s;
  });
  std::printf("tail percentile: %s of %zu migrations\n", tail(total).first,
              r.migrations.size());
  for (const auto* reps : {&plain, &traced}) {
    if (reps->empty()) continue;
    std::printf("%s repetitions, wall_s:", reps == &plain ? "untraced"
                                                          : "traced");
    for (const RepResult& x : *reps) std::printf(" %.4f", x.wall_s);
    std::printf("\n");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (traced.empty()) return;
  // Self time per profiler category, largest first (first traced rep).
  const RepResult& t = traced.front();
  std::vector<std::pair<double, ProfCategory>> rows;
  double sum = 0;
  for (std::size_t i = 0; i < kProfCategories; ++i) {
    const auto pc = static_cast<ProfCategory>(i);
    rows.emplace_back(self_ms(t, pc), pc);
    sum += self_ms(t, pc);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::printf("profiler self time (first traced repetition, run %.1f ms):\n",
              t.wall_s * 1e3);
  for (const auto& [ms, pc] : rows) {
    std::printf("  %-20s %10.1f ms %6.1f%%\n", vmig::obs::to_string(pc), ms,
                sum > 0 ? 100.0 * ms / sum : 0.0);
  }
}

void print_json(const Options& opt, bool correct, std::size_t attempted,
                std::size_t failed, std::uint64_t fingerprint,
                const std::vector<Metric>& metrics) {
  std::string s = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                  std::to_string(opt.seed) + ", \"size\": \"" +
                  (opt.size == Size::kSmall ? "small" : "full") +
                  "\", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed);
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  s += ", \"fingerprint\": \"" + std::string{fp} + "\", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_roundtrip|evac_10k|evac_chaos_obs"
               " [--seed N] [--seconds S] [--trace 0|1] [--size full|small]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a{argv[i]};
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v, &end);
      if (!(o->seconds >= 0)) return false;
    } else if (a == "--trace") {
      const std::string_view t{v};
      if (t != "0" && t != "1") return false;
      o->trace = t == "1";
    } else if (a == "--size") {
      const std::string_view s{v};
      if (s != "full" && s != "small") return false;
      o->size = s == "small" ? Size::kSmall : Size::kFull;
    } else {
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) return false;
  }
  return runner_for(o->workload) != nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, &opt)) return usage(argv[0]);
  const Runner run = runner_for(opt.workload);

  // Repeat until the budget is spent. Traced runs alternate untraced and
  // traced repetitions so the overhead ratio compares like with like.
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  const vmig::obs::WallStopwatch budget;
  do {
    plain.push_back(run({.seed = opt.seed, .traced = false, .size = opt.size}));
    if (opt.trace) {
      traced.push_back(
          run({.seed = opt.seed, .traced = true, .size = opt.size}));
    }
  } while (static_cast<double>(budget.elapsed_ns()) / 1e9 < opt.seconds);

  // Correctness: every job terminal and consistent in every repetition, and
  // every repetition (traced or not) produced the same simulated outputs.
  const std::uint64_t fingerprint = plain.front().fingerprint;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.jobs;
      failed += r.failed;
      if (r.fingerprint != fingerprint) {
        correct = false;
        std::printf("fingerprint mismatch between repetitions: "
                    "%016llx vs %016llx\n",
                    static_cast<unsigned long long>(r.fingerprint),
                    static_cast<unsigned long long>(fingerprint));
      }
    }
  }
  if (failed != 0) correct = false;

  const std::vector<Metric> metrics = metrics_of(plain, traced);
  print_report(opt, plain, traced, metrics);
  std::fflush(stdout);
  print_json(opt, correct, attempted, failed, fingerprint, metrics);
  return 0;
}

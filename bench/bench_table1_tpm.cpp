// Reproduces Table I (paper §VI-C): TPM whole-system migration of the three
// evaluation workloads on the Gigabit-LAN / SATA2 testbed — total migration
// time, downtime, and amount of migrated data.
//
// Paper values: total 796 / 798 / 957 s; downtime 60 / 62 / 110 ms; data
// 39097 / 39072 / 40934 MB for dynamic-web / low-latency / diabolical.
// (The paper's "amount of migrated data" counts disk data: web is 39070 MB
// of VBD + 27 MB of retransfer; our disk-data column compares against it.)
//
// Usage: bench_table1_tpm [--json FILE]
//   --json FILE  run under obs::Profiler and write flat metrics for the
//                baseline gate (bench/baselines/BENCH_table1.json): each
//                row's simulated results, the deterministic work behind
//                them (events, calendar probes, blocks scanned, token pages
//                materialized, coroutine frames), and the per-layer profile
//                (prof.<category>.excl_ms, ns per block scanned). Each
//                10M-block first pass must cost time in proportion to the
//                blocks moved, not to the disk squared, and host memory
//                must follow the pages the guests wrote.

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/profiler.hpp"
#include "scenario/testbed.hpp"
#include "workloads/diabolical.hpp"
#include "workloads/streaming.hpp"
#include "workloads/web_server.hpp"

using namespace vmig;
using namespace vmig::sim::literals;

namespace {

struct Row {
  const char* name;
  const char* key;  ///< metric prefix in the --json output
  double paper_total_s;
  double paper_down_ms;
  double paper_data_mb;
  core::MigrationReport rep;
};

double disk_data_mib(const core::MigrationReport& r) {
  return static_cast<double>(r.bytes_disk_first_pass + r.bytes_disk_retransfer +
                             r.bytes_postcopy_push + r.bytes_postcopy_pull) /
         (1024.0 * 1024.0);
}

struct WlOutcome {
  core::MigrationReport rep;
  std::uint64_t stream_stalls = 0;  ///< streaming only: missed deadlines
  std::uint64_t events = 0;
  std::uint64_t calendar_probes = 0;
  std::uint64_t pages_materialized = 0;  ///< both hosts' token pages
  std::uint64_t payload_entries = 0;     ///< migration payload entries copied
  std::uint64_t frames = 0;              ///< coroutine frames created
};

WlOutcome run_workload(int which) {
  sim::Simulator sim;
  scenario::Testbed tb{sim};
  tb.prefill_disk();
  std::unique_ptr<workload::Workload> wl;
  switch (which) {
    case 0:
      wl = std::make_unique<workload::WebServerWorkload>(sim, tb.vm(), 42);
      break;
    case 1:
      wl = std::make_unique<workload::StreamingWorkload>(sim, tb.vm(), 42);
      break;
    default:
      wl = std::make_unique<workload::DiabolicalWorkload>(sim, tb.vm(), 42);
      break;
  }
  WlOutcome out;
  out.rep = tb.run_tpm(wl.get(), 60_s, 30_s, tb.paper_migration_config());
  if (which == 1) {
    out.stream_stalls =
        static_cast<workload::StreamingWorkload*>(wl.get())->stalls();
  }
  out.events = sim.events_processed();
  out.calendar_probes = sim.calendar_probes();
  out.pages_materialized =
      tb.source().pages_materialized() + tb.dest().pages_materialized();
  out.payload_entries =
      tb.source().payload_entries() + tb.dest().payload_entries();
  out.frames = sim.frames_created();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a{argv[i]};
    if (a == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  obs::Profiler profiler;
  if (!json_out.empty()) profiler.activate();

  bench::header("Table I", "TPM results for different workloads");

  Row rows[] = {
      {"Dynamic web server", "web", 796.0, 60.0, 39097.0, {}},
      {"Low latency server", "stream", 798.0, 62.0, 39072.0, {}},
      {"Diabolical server", "diabolical", 957.0, 110.0, 40934.0, {}},
  };
  std::uint64_t stream_stalls = 0;
  std::uint64_t events = 0;
  std::uint64_t calendar_probes = 0;
  std::uint64_t pages_materialized = 0;
  std::uint64_t payload_entries = 0;
  std::uint64_t frames = 0;
  obs::WallStopwatch wall;
  for (int i = 0; i < 3; ++i) {
    const auto outcome = run_workload(i);
    rows[i].rep = outcome.rep;
    if (i == 1) stream_stalls = outcome.stream_stalls;
    events += outcome.events;
    calendar_probes += outcome.calendar_probes;
    pages_materialized += outcome.pages_materialized;
    payload_entries += outcome.payload_entries;
    frames += outcome.frames;
  }
  const double wall_ms = wall.elapsed_ms();
  obs::Profiler::deactivate();

  std::printf("\n%-22s | %-21s | %-21s | %-23s\n", "", "Total migration (s)",
              "Downtime (ms)", "Disk data moved (MB)");
  std::printf("%-22s | %9s %10s | %9s %10s | %10s %11s\n", "workload", "paper",
              "measured", "paper", "measured", "paper", "measured");
  for (const auto& r : rows) {
    std::printf("%-22s | %9.1f %10.1f | %9.0f %10.1f | %10.0f %11.1f\n",
                r.name, r.paper_total_s, r.rep.total_time().to_seconds(),
                r.paper_down_ms, r.rep.downtime().to_millis(),
                r.paper_data_mb, disk_data_mib(r.rep));
  }

  bench::section("detail");
  for (const auto& r : rows) {
    std::printf("%-22s iters=%d first=%llu retx=%llu residual=%llu "
                "push=%llu pull=%llu mem_resid=%llu pages "
                "total_data=%.1f MiB consistent=%s/%s\n",
                r.name, r.rep.disk_iterations,
                static_cast<unsigned long long>(r.rep.blocks_first_pass),
                static_cast<unsigned long long>(r.rep.blocks_retransferred),
                static_cast<unsigned long long>(r.rep.residual_dirty_blocks),
                static_cast<unsigned long long>(r.rep.blocks_pushed),
                static_cast<unsigned long long>(r.rep.blocks_pulled),
                static_cast<unsigned long long>(r.rep.pages_residual),
                r.rep.total_mib(), r.rep.disk_consistent ? "disk-ok" : "DISK-BAD",
                r.rep.memory_consistent ? "mem-ok" : "MEM-BAD");
  }

  bench::section("shape checks");
  const bool order_ok = rows[2].rep.total_time() > rows[0].rep.total_time() &&
                        rows[2].rep.total_time() > rows[1].rep.total_time();
  std::printf("  diabolical slowest:            %s\n", order_ok ? "yes" : "NO");
  std::printf("  all downtimes < 1 s:           %s\n",
              (rows[0].rep.downtime() < 1_s && rows[1].rep.downtime() < 1_s &&
               rows[2].rep.downtime() < 1_s)
                  ? "yes"
                  : "NO");
  std::printf("  data just above VBD size:      %s\n",
              (disk_data_mib(rows[0].rep) > 39070 &&
               disk_data_mib(rows[0].rep) < 39070 * 1.03)
                  ? "yes"
                  : "NO");
  std::printf("  video played fluently:         %s (%llu stalled chunks; "
              "paper: \"no observable intermission\")\n",
              stream_stalls == 0 ? "yes" : "NO",
              static_cast<unsigned long long>(stream_stalls));

  if (!json_out.empty()) {
    const auto& scan = profiler.stats(obs::ProfCategory::kBitmapScan);
    bench::section("work and self-profile (wall clock)");
    std::printf("  wall %.1f ms, %llu events, %llu calendar probes, "
                "%llu blocks scanned, %llu token pages materialized, "
                "%llu payload entries, %llu coroutine frames\n%s",
                wall_ms, static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(calendar_probes),
                static_cast<unsigned long long>(scan.events),
                static_cast<unsigned long long>(pages_materialized),
                static_cast<unsigned long long>(payload_entries),
                static_cast<unsigned long long>(frames),
                profiler.table().c_str());
    std::vector<std::pair<std::string, double>> kv;
    for (const auto& r : rows) {
      const std::string p = std::string{"table1."} + r.key + ".";
      kv.emplace_back(p + "total_s", r.rep.total_time().to_seconds());
      kv.emplace_back(p + "downtime_ms", r.rep.downtime().to_millis());
      kv.emplace_back(p + "disk_mib", disk_data_mib(r.rep));
      kv.emplace_back(p + "consistent",
                      r.rep.disk_consistent && r.rep.memory_consistent ? 1 : 0);
    }
    kv.emplace_back("table1.events", static_cast<double>(events));
    kv.emplace_back("table1.calendar_probes",
                    static_cast<double>(calendar_probes));
    kv.emplace_back("table1.blocks_scanned", static_cast<double>(scan.events));
    kv.emplace_back("table1.pages_materialized",
                    static_cast<double>(pages_materialized));
    kv.emplace_back("table1.payload_entries",
                    static_cast<double>(payload_entries));
    kv.emplace_back("table1.frames", static_cast<double>(frames));
    kv.emplace_back("table1.wall_ms", wall_ms);
    kv.emplace_back("table1.scan_ns_per_block",
                    scan.events > 0 ? static_cast<double>(scan.exclusive_ns) /
                                          static_cast<double>(scan.events)
                                    : 0.0);
    for (auto& m : profiler.flat_metrics()) kv.push_back(std::move(m));
    if (!bench::write_flat_json(json_out.c_str(), kv)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 2;
    }
    std::printf("  metrics -> %s\n", json_out.c_str());
  }
  return 0;
}

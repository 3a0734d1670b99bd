#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "spans.hpp"

namespace perfbench {

/// Paper scale, or the reduced scale the repeatability test runs.
enum class Size : std::uint8_t { kFull, kSmall };

struct RunSpec {
  std::uint64_t seed = 1;
  /// Activate obs::Profiler and the phase listener around the run.
  bool traced = false;
  Size size = Size::kFull;
};

/// The final attempt of one migration job.
struct MigrationSample {
  double total_s = 0;        ///< paper §III-A total migration time (sim)
  double downtime_ms = 0;    ///< sim
  double mib = 0;            ///< MigrationReport::total_bytes(), MiB
  double stall_ms = 0;       ///< post-copy read stall + fallback freeze (sim)
  double queue_wait_s = 0;   ///< submit -> final attempt start (cluster, sim)
  int attempts = 1;
};

/// Exact counters read from each layer's public API after the run. Every
/// field is a deterministic function of (workload, seed, size).
struct LayerCounts {
  std::uint64_t events = 0;           ///< Simulator::events_processed
  std::uint64_t ff_settles = 0;       ///< Simulator::ff_settles
  std::uint64_t blocks_first_pass = 0;
  std::uint64_t blocks_retransferred = 0;
  std::uint64_t disk_iterations = 0;
  std::uint64_t blocks_pushed = 0;
  std::uint64_t blocks_pulled = 0;
  std::uint64_t pull_retries = 0;
  std::uint64_t reads_blocked = 0;
  std::uint64_t fallback_freezes = 0;
  std::uint64_t disk_requests = 0;    ///< DiskScheduler, every host
  double disk_busy_s = 0;
  double disk_latency_p50_ms = 0;     ///< busiest disk's median
  double disk_latency_p99_ms = 0;     ///< worst disk's p99
  std::uint64_t net_bytes = 0;        ///< net::Link, every materialized link
  std::uint64_t net_messages = 0;
  double net_busy_s = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t guest_writes = 0;     ///< BlkBackend, every guest backend
  std::uint64_t guest_reads = 0;
  std::uint64_t dirty_marks = 0;      ///< marks since tracking last started
  std::uint64_t retries = 0;          ///< cluster::Orchestrator
  std::uint64_t deferrals = 0;
  std::uint64_t peak_running = 0;
  std::uint64_t fault_windows = 0;    ///< fault::FaultInjector
  std::uint64_t fault_dropped = 0;
  std::uint64_t recorder_events = 0;  ///< obs::FlightRecorder
  std::uint64_t recorder_sampled_out = 0;
};

/// Profiler categories, as reported in the per-layer metrics.
inline constexpr std::size_t kProfCategories =
    static_cast<std::size_t>(vmig::obs::ProfCategory::kCount);

/// Wall-clock readings of a traced repetition (zero in untraced ones).
struct TraceReadings {
  std::array<vmig::obs::ProfCategoryStats, kProfCategories> prof{};
  /// Host ms per TPM phase: disk pre-copy, memory pre-copy, freeze,
  /// post-copy (from the progress-listener stamps).
  std::array<double, 4> phase_ms{};
};

/// Everything one repetition of a workload produces.
struct RepResult {
  double setup_s = 0;   ///< construct + register + prefill + submit (host)
  double wall_s = 0;    ///< the run/drain call (host)
  double construct_ms = 0;
  double register_ms = 0;
  double prefill_ms = 0;
  double submit_ms = 0;
  double sim_makespan_s = 0;
  std::uint64_t fingerprint = 0;  ///< hash of every simulated output
  std::size_t jobs = 0;           ///< migrations requested
  std::size_t failed = 0;         ///< failed, inconsistent or non-terminal
  std::vector<MigrationSample> migrations;
  LayerCounts counts;
  TraceReadings trace;
  SpanLog spans;
};

RepResult run_paper_roundtrip(const RunSpec& spec);
RepResult run_evac_10k(const RunSpec& spec);
RepResult run_evac_chaos_obs(const RunSpec& spec);

}  // namespace perfbench

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/simulator.hpp"
#include "simcore/time.hpp"

namespace vmig::obs {

/// Fleet rollup tunables. `hosts_per_rack` fixes the host -> rack fold
/// (rack r = host index / hosts_per_rack); `top_k` bounds every hot-host
/// table. Both are part of the export's identity: two runs compare
/// byte-identical only under the same RollupConfig.
struct RollupConfig {
  std::size_t hosts = 0;
  std::size_t hosts_per_rack = 32;
  std::size_t top_k = 8;
  sim::Duration sample_interval = sim::Duration::seconds(1);
};

/// Terminal-job slice the orchestrator folds into the rollup — plain
/// integers so obs keeps no dependency on core (mirrors MigrationClose).
struct RollupJobClose {
  bool completed = false;
  /// deadline > 0 and the job either failed or overran it (the same
  /// predicate `vmig_analyze` prints in its SLO table).
  bool slo_miss = false;
  /// MigrationReport::total_bytes() of the terminal attempt.
  std::uint64_t bytes = 0;
  std::int64_t downtime_ns = 0;
  /// blocks_retransferred + residual_dirty_blocks of the terminal attempt —
  /// the re-dirty churn the migration observed (the "dirty rate" hotness
  /// signal at fleet scope).
  std::uint64_t dirty_blocks = 0;
};

/// Deterministic hierarchical aggregation tree: VM -> host -> rack -> fleet.
///
/// Engine objects feed per-host accumulator cells (keyed by the host's
/// stable testbed index, never by materialization order); `sample_now`
/// folds the cells upward into one bounded snapshot — fleet totals, active
/// racks, top-K hot hosts by dirty churn / migration bytes / SLO burn, and
/// the simulator's calendar occupancy — so a 100k-VM run exports
/// O(racks + top_k) series per sample instead of per-entity cardinality.
///
/// Determinism contract (pinned by tests/scale_test.cpp): the export is
/// byte-identical across replays of one configuration and across
/// lazy/eager materialization.
///
/// Zero-overhead when off: holders keep a `Rollup*` that is null when fleet
/// telemetry is disabled — every feed site is one branch, and no rollup
/// state exists in an uninstrumented run.
class Rollup {
 public:
  Rollup(sim::Simulator& sim, RollupConfig cfg);

  Rollup(const Rollup&) = delete;
  Rollup& operator=(const Rollup&) = delete;

  /// Bind an engine host object to its stable fleet index. Cells are
  /// pre-sized at construction; registration only teaches the rollup which
  /// pointer means which index (lazy testbeds register at materialization).
  void register_host(const void* host, std::uint32_t index);

  // ---- Engine feed (orchestrator; null-guarded at every call site) ----
  void job_submitted();
  /// One attempt launched: src/dst in-flight up.
  void attempt_started(const void* src, const void* dst);
  /// The attempt left the running state (terminal or about to retry).
  void attempt_finished(const void* src, const void* dst);
  /// A failed attempt was re-queued through backoff.
  void job_retry(const void* src);
  /// A scheduling pass deferred every eligible job (cycle-aware policy).
  void deferral();
  /// The job reached a terminal state; attributed to the source host.
  void job_terminal(const void* src, const void* dst,
                    const RollupJobClose& close);

  // ---- Sampling ----
  /// Take one snapshot now and re-sample every `sample_interval` of sim
  /// time. The timer parks itself when the event queue drains (the Registry
  /// sampler convention), so an attached rollup never keeps the simulator
  /// alive on its own. Call `sample_now()` once more after the run drains
  /// to capture the terminal fleet state.
  void start_sampling();
  bool sampling() const noexcept { return sampling_; }
  /// Fold the host cells into one snapshot at sim.now().
  void sample_now();

  std::size_t snapshot_count() const noexcept { return snaps_.size(); }
  std::size_t host_count() const noexcept { return cells_.size(); }
  std::size_t rack_count() const noexcept { return racks_; }

  /// Long-format CSV ("t_seconds,metric,value"), one bounded row group per
  /// snapshot, integers printed exactly (no float rounding, so downstream
  /// reconciliation against the flight record is exact).
  void write_csv(std::ostream& out) const;
  std::string to_csv() const;

 private:
  /// Per-host accumulator cell, indexed by fleet host index.
  struct HostCell {
    std::uint64_t bytes_out = 0;     ///< terminal-attempt bytes, as source
    std::uint64_t bytes_in = 0;      ///< terminal-attempt bytes, as dest
    std::uint64_t dirty_blocks = 0;  ///< re-dirty churn of terminal attempts
    std::uint32_t completed = 0;
    std::uint32_t failed = 0;
    std::uint32_t retries = 0;
    std::uint32_t slo_miss = 0;
    std::int64_t downtime_ns = 0;
    std::int32_t in_flight = 0;      ///< running attempts touching this host
  };
  struct RackRow {
    std::uint32_t rack = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t dirty_blocks = 0;
    std::uint32_t jobs_completed = 0;
    std::uint32_t jobs_failed = 0;
    std::uint32_t slo_miss = 0;
    std::int32_t in_flight = 0;
  };
  struct HotRow {
    std::uint32_t host = 0;
    std::uint64_t value = 0;
  };
  struct Snapshot {
    std::int64_t t_ns = 0;
    std::uint64_t submitted = 0;
    std::uint64_t running = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t slo_miss = 0;
    std::uint64_t bytes_total = 0;
    std::int64_t downtime_ns_total = 0;
    std::uint64_t dirty_blocks_total = 0;
    std::uint64_t pending_events = 0;
    std::uint64_t calendar_queued = 0;  ///< Simulator::calendar_queued()
    std::uint64_t events_processed = 0;
    std::uint64_t ff_settles = 0;
    std::vector<RackRow> racks;  ///< active racks only, ascending id
    std::vector<HotRow> hot_dirty;
    std::vector<HotRow> hot_bytes;
    std::vector<HotRow> hot_slo;
  };

  HostCell* cell(const void* host);
  void tick();
  /// Deterministic top-K of nonzero `value(cell)` rows: value desc, host
  /// index asc — the tie-break that keeps lazy/eager exports identical.
  template <typename ValueFn>
  std::vector<HotRow> top_k_by(ValueFn value) const;

  sim::Simulator& sim_;
  RollupConfig cfg_;
  std::size_t racks_ = 0;
  std::vector<HostCell> cells_;
  std::unordered_map<const void*, std::uint32_t> host_of_;

  // Fleet-only counters (no per-host attribution).
  std::uint64_t submitted_ = 0;
  std::uint64_t running_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t deferrals_ = 0;

  std::vector<Snapshot> snaps_;
  bool sampling_ = false;
};

}  // namespace vmig::obs

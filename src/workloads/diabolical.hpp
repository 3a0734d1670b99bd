#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace vmig::workload {

/// Bonnie++-like diabolical server: continuous disk-saturating I/O cycling
/// through Bonnie++'s phases — per-character sequential output (putc),
/// block sequential output (write(2)), rewrite (read-modify-write), block
/// sequential input (getc), and random seeks. The paper uses it as the
/// worst case for whole-system migration: it dirties blocks faster than any
/// realistic service and fights the migration stream for the disk (Fig. 6).
struct DiabolicalParams {
  /// Size of the Bonnie++ scratch file.
  std::uint64_t file_mib = 1024;
  /// CPU-side ceiling for the per-character phases (putc/getc are libc-call
  /// bound, not disk bound; Table III has putc at ~47 MB/s vs write(2) ~96).
  double putc_cpu_mibps = 114.0;
  double getc_cpu_mibps = 110.0;
  /// Rotational penalty per chunk in the rewrite phase: writing a block just
  /// read costs (most of) a revolution, which is why Bonnie++'s rewrite rate
  /// (~26 MB/s in Table III) is far below half the write(2) rate.
  sim::Duration rewrite_rotation = sim::Duration::millis(4);
  /// Random seeks performed in the seek phase (Bonnie++ default is time
  /// bound; a fixed count keeps the cycle structure size-bound like the
  /// other phases).
  std::uint64_t seek_count = 4000;
  /// I/O chunk size in blocks (Bonnie uses large buffered writes).
  std::uint32_t chunk_blocks = 64;
  /// Stop after this many complete cycles (0 = run until stopped). The
  /// locality measurements use 1, matching one Bonnie++ run on a fresh FS.
  std::uint64_t max_cycles = 0;
  /// Pages dirtied per chunk (application buffers; the guest page cache is
  /// not dirty-logged here — see DESIGN.md's calibration notes).
  int pages_per_chunk = 1;
};

class DiabolicalWorkload final : public Workload {
 public:
  DiabolicalWorkload(sim::Simulator& sim, vm::Domain& domain, std::uint64_t seed,
                     DiabolicalParams params = {});

  std::string name() const override { return "diabolical"; }

  /// Phase names in cycle order: putc, write2, rewrite, getc, seeks.
  static const std::vector<std::string>& phase_names();

  /// Per-phase throughput meter ("putc", "write2", "rewrite", "getc",
  /// "seeks"); null if unknown name.
  const sim::RateMeter* phase_meter(const std::string& phase) const;
  /// Mean throughput of a phase over [from, to], bytes/second.
  double phase_mean(const std::string& phase, sim::TimePoint from,
                    sim::TimePoint to) const;

  /// Total simulated time spent inside a phase (across all cycles).
  sim::Duration phase_time(const std::string& phase) const;
  /// Exact mean rate of a phase over its own active time, bytes/second.
  double phase_rate(const std::string& phase) const;

  void finish_phase_metrics();

  /// Completed phase passes (each pass = one whole file).
  std::uint64_t cycles_completed() const noexcept { return cycles_; }

 protected:
  sim::Task<void> run() override;

 private:
  /// Index of a phase in phase_names() order.
  enum Phase : std::size_t { kPutc, kWrite2, kRewrite, kGetc, kSeeks, kPhaseCount };
  struct PhaseStats {
    sim::RateMeter meter{sim::Duration::seconds(1), "B/s"};
    sim::Duration time{};
  };

  /// Stats of the named phase, or null if the name is unknown.
  const PhaseStats* find_phase(const std::string& phase) const;

  // Each phase processes the whole scratch file once, exactly as Bonnie++
  // does — so a slower disk stretches the phase instead of shrinking its
  // coverage.
  sim::Task<void> putc_phase();
  sim::Task<void> write2_phase();
  sim::Task<void> rewrite_phase();
  sim::Task<void> getc_phase();
  sim::Task<void> seeks_phase();

  void phase_account(Phase phase, double bytes);
  storage::BlockRange next_seq_chunk(std::uint64_t base, std::uint64_t blocks);

  DiabolicalParams p_;
  std::uint64_t cycles_ = 0;
  std::uint64_t file_start_ = 0;
  std::uint64_t file_blocks_ = 0;
  std::uint64_t seq_cursor_ = 0;
  std::array<PhaseStats, kPhaseCount> phases_;
};

}  // namespace vmig::workload

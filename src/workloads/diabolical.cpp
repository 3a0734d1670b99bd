#include "workloads/diabolical.hpp"

#include <algorithm>

namespace vmig::workload {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}

DiabolicalWorkload::DiabolicalWorkload(sim::Simulator& sim, vm::Domain& domain,
                                       std::uint64_t seed, DiabolicalParams params)
    : Workload{sim, domain, seed}, p_{params} {}

const std::vector<std::string>& DiabolicalWorkload::phase_names() {
  static const std::vector<std::string> kNames{"putc", "write2", "rewrite",
                                               "getc", "seeks"};
  return kNames;
}

const DiabolicalWorkload::PhaseStats* DiabolicalWorkload::find_phase(
    const std::string& phase) const {
  const auto& names = phase_names();
  const auto it = std::find(names.begin(), names.end(), phase);
  return it == names.end()
             ? nullptr
             : &phases_[static_cast<std::size_t>(it - names.begin())];
}

const sim::RateMeter* DiabolicalWorkload::phase_meter(
    const std::string& phase) const {
  const PhaseStats* ps = find_phase(phase);
  return ps == nullptr ? nullptr : &ps->meter;
}

double DiabolicalWorkload::phase_mean(const std::string& phase,
                                      sim::TimePoint from,
                                      sim::TimePoint to) const {
  const auto* m = phase_meter(phase);
  if (m == nullptr) return 0.0;
  // A phase runs a fraction of the cycle, and the 1 s windows straddling
  // its start/end are diluted by idle time — take the plateau: samples
  // within the window that reach at least 40% of the window's peak.
  double peak = 0.0;
  for (const auto& pt : m->series().points()) {
    if (pt.t >= from && pt.t <= to && pt.value > peak) peak = pt.value;
  }
  sim::SummaryStats s;
  for (const auto& pt : m->series().points()) {
    if (pt.t >= from && pt.t <= to && pt.value > 0.4 * peak && pt.value > 0.0) {
      s.add(pt.value);
    }
  }
  return s.mean();
}

sim::Duration DiabolicalWorkload::phase_time(const std::string& phase) const {
  const PhaseStats* ps = find_phase(phase);
  return ps == nullptr ? sim::Duration::zero() : ps->time;
}

double DiabolicalWorkload::phase_rate(const std::string& phase) const {
  const auto t = phase_time(phase);
  const auto* m = phase_meter(phase);
  if (m == nullptr || t <= sim::Duration::zero()) return 0.0;
  return m->total() / t.to_seconds();
}

void DiabolicalWorkload::finish_phase_metrics() {
  for (PhaseStats& ps : phases_) ps.meter.finish(sim_.now());
  finish_metrics();
}

void DiabolicalWorkload::phase_account(Phase phase, double bytes) {
  phases_[phase].meter.add(sim_.now(), bytes);
  account(bytes);
}

storage::BlockRange DiabolicalWorkload::next_seq_chunk(std::uint64_t base,
                                                       std::uint64_t blocks) {
  const std::uint64_t pos = seq_cursor_ % (blocks - p_.chunk_blocks + 1);
  seq_cursor_ += p_.chunk_blocks;
  return storage::BlockRange{base + pos, p_.chunk_blocks};
}

sim::Task<void> DiabolicalWorkload::run() {
  const std::uint64_t blocks = disk_blocks();
  const std::uint32_t block_size = 4096;
  file_blocks_ = std::max<std::uint64_t>(p_.file_mib * 1024 * 1024 / block_size,
                                         p_.chunk_blocks * 4);
  file_blocks_ = std::min(file_blocks_, blocks / 2);
  file_start_ = blocks / 2;

  while (!stop_requested()) {
    sim::TimePoint mark = sim_.now();
    const auto lap = [&](Phase phase) {
      phases_[phase].time += sim_.now() - mark;
      mark = sim_.now();
    };
    co_await putc_phase();
    lap(kPutc);
    co_await write2_phase();
    lap(kWrite2);
    co_await rewrite_phase();
    lap(kRewrite);
    co_await getc_phase();
    lap(kGetc);
    co_await seeks_phase();
    lap(kSeeks);
    ++cycles_;
    if (p_.max_cycles > 0 && cycles_ >= p_.max_cycles) break;
  }
}

sim::Task<void> DiabolicalWorkload::putc_phase() {
  // The per-character file occupies the first half of the scratch region
  // (on a fresh filesystem, Bonnie++'s files get distinct extents).
  const double chunk_bytes = static_cast<double>(p_.chunk_blocks) * 4096.0;
  const auto cpu_cost =
      sim::Duration::from_seconds(chunk_bytes / (p_.putc_cpu_mibps * kMiB));
  const std::uint64_t half = file_blocks_ / 2;
  const std::uint64_t chunks = half / p_.chunk_blocks;
  seq_cursor_ = 0;
  for (std::uint64_t i = 0; i < chunks && !stop_requested(); ++i) {
    co_await domain_.barrier();
    // Per-character output: the guest burns CPU filling the buffer, then
    // the buffered chunk hits the disk.
    co_await sim_.delay(cpu_cost);
    co_await write_blocks(next_seq_chunk(file_start_, half));
    touch_pages(p_.pages_per_chunk);
    phase_account(kPutc, chunk_bytes);
  }
}

sim::Task<void> DiabolicalWorkload::write2_phase() {
  // The block-I/O file takes the second half of the scratch region.
  const double chunk_bytes = static_cast<double>(p_.chunk_blocks) * 4096.0;
  const std::uint64_t half = file_blocks_ / 2;
  const std::uint64_t chunks = half / p_.chunk_blocks;
  seq_cursor_ = 0;
  for (std::uint64_t i = 0; i < chunks && !stop_requested(); ++i) {
    co_await domain_.barrier();
    co_await write_blocks(next_seq_chunk(file_start_ + half, half));
    touch_pages(p_.pages_per_chunk);
    phase_account(kWrite2, chunk_bytes);
  }
}

sim::Task<void> DiabolicalWorkload::rewrite_phase() {
  // Rewrite reads and rewrites the block-I/O file in place.
  const double chunk_bytes = static_cast<double>(p_.chunk_blocks) * 4096.0;
  const std::uint64_t half = file_blocks_ / 2;
  const std::uint64_t chunks = half / p_.chunk_blocks;
  seq_cursor_ = 0;
  for (std::uint64_t i = 0; i < chunks && !stop_requested(); ++i) {
    co_await domain_.barrier();
    const auto chunk = next_seq_chunk(file_start_ + half, half);
    co_await read_blocks(chunk);
    co_await sim_.delay(p_.rewrite_rotation);  // missed-revolution cost
    co_await write_blocks(chunk);
    touch_pages(p_.pages_per_chunk);
    phase_account(kRewrite, chunk_bytes);
  }
}

sim::Task<void> DiabolicalWorkload::getc_phase() {
  const double chunk_bytes = static_cast<double>(p_.chunk_blocks) * 4096.0;
  const auto cpu_cost =
      sim::Duration::from_seconds(chunk_bytes / (p_.getc_cpu_mibps * kMiB));
  const std::uint64_t chunks = file_blocks_ / p_.chunk_blocks;
  seq_cursor_ = 0;
  for (std::uint64_t i = 0; i < chunks && !stop_requested(); ++i) {
    co_await domain_.barrier();
    co_await read_blocks(next_seq_chunk(file_start_, file_blocks_));
    co_await sim_.delay(cpu_cost);
    phase_account(kGetc, chunk_bytes);
  }
}

sim::Task<void> DiabolicalWorkload::seeks_phase() {
  for (std::uint64_t i = 0; i < p_.seek_count && !stop_requested(); ++i) {
    co_await domain_.barrier();
    const std::uint64_t b = file_start_ + rng_.uniform_u64(file_blocks_ - 2);
    co_await read_blocks(storage::BlockRange{b, 2});
    // Bonnie++ rewrites ~10% of the blocks it seeks to.
    if (rng_.bernoulli(0.1)) {
      co_await write_blocks(storage::BlockRange{b, 2});
    }
    phase_account(kSeeks, 2 * 4096.0);
  }
}

}  // namespace vmig::workload

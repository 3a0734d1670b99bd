#include "hypervisor/checkpoint.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "obs/profiler.hpp"
#include "obs/recorder.hpp"

namespace vmig::hv {

using core::MemPagesMsg;
using core::MigrationMessage;

sim::Task<std::uint64_t> MemoryMigrator::send_pages(
    vm::Domain& domain, const core::BlockBitmap& pages, MigStream& stream,
    net::TokenBucket* shaper, std::uint64_t* pages_sent) {
  std::uint64_t bytes = 0;
  std::uint64_t left = pages.count_set();
  const std::uint64_t chunk = std::max<std::uint64_t>(1, cfg_.mem_chunk_pages);
  std::uint64_t pos = 0;
  while (left > 0) {
    const std::uint64_t n = std::min(chunk, left);
    // The chunk buffers are per-chunk churn, charged kOther, not dispatch.
    MemPagesMsg msg = [&] {
      obs::ProfScope chunk_prof{obs::ProfCategory::kOther};
      return MemPagesMsg{domain.memory(), n};
    }();
    // Version snapshot happens at send time, like reading the live pages.
    pos = msg.fill(domain.memory(), pages, pos, n);
    assert(msg.pages == n);
    left -= n;
    if (pages_sent != nullptr) *pages_sent += n;
    MigrationMessage wire{std::move(msg)};
    bytes += wire.wire_bytes();
    co_await stream.send(std::move(wire), shaper);
  }
  co_return bytes;
}

sim::Task<std::uint64_t> MemoryMigrator::send_all_pages(
    vm::Domain& domain, MigStream& stream, net::TokenBucket* shaper,
    std::uint64_t* pages_sent) {
  // Round-1 all-pages bitmap: per-migration setup, charged kOther.
  const core::BlockBitmap all = [&] {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    return core::BlockBitmap{domain.memory().page_count(),
                             /*initially_set=*/true};
  }();
  co_return co_await send_pages(domain, all, stream, shaper, pages_sent);
}

sim::Task<MemoryMigrator::PrecopyResult> MemoryMigrator::precopy(
    vm::Domain& domain, MigStream& stream, net::TokenBucket* shaper) {
  PrecopyResult res;
  domain.memory().enable_dirty_log();

  // Iteration 1: every page.
  const sim::TimePoint round1_start = sim_.now();
  const std::uint64_t round1_bytes =
      co_await send_all_pages(domain, stream, shaper, &res.pages_sent);
  res.bytes_sent += round1_bytes;
  res.iterations = 1;
  std::uint64_t last_iter_pages = domain.memory().page_count();
  if (flight_ != nullptr) {
    flight_->mem_precopy_send(flight_mig_, sim_.now(), 1, last_iter_pages,
                              round1_bytes);
  }
  if (tracer_) {
    tracer_->complete(track_, round1_start, "mem_round",
                      "\"round\": 1, \"pages\": " +
                          std::to_string(last_iter_pages));
  }

  while (res.iterations < cfg_.mem_max_iterations) {
    const std::uint64_t dirty = domain.memory().dirty_page_count();
    if (dirty <= cfg_.mem_residual_target_pages) break;  // small enough: freeze
    if (static_cast<double>(dirty) >=
        static_cast<double>(last_iter_pages) * cfg_.mem_dirty_rate_abort_ratio) {
      // Dirtying as fast as we send: another round cannot shrink the set.
      res.aborted_dirty_rate = true;
      if (tracer_) {
        tracer_->instant(track_, "mem_dirty_rate_abort",
                         "\"dirty_pages\": " + std::to_string(dirty) +
                             ", \"last_iter_pages\": " +
                             std::to_string(last_iter_pages));
      }
      break;
    }
    const core::BlockBitmap snap = [&] {
      obs::ProfScope snap_prof{obs::ProfCategory::kOther};
      return domain.memory().take_dirty_and_reset();
    }();
    const sim::TimePoint round_start = sim_.now();
    std::uint64_t sent = 0;
    const std::uint64_t round_bytes =
        co_await send_pages(domain, snap, stream, shaper, &sent);
    res.bytes_sent += round_bytes;
    res.pages_sent += sent;
    last_iter_pages = sent;
    ++res.iterations;
    if (flight_ != nullptr) {
      flight_->mem_precopy_send(flight_mig_, sim_.now(), res.iterations, sent,
                                round_bytes);
    }
    if (tracer_) {
      tracer_->complete(track_, round_start, "mem_round",
                        "\"round\": " + std::to_string(res.iterations) +
                            ", \"pages\": " + std::to_string(sent));
    }
  }
  co_return res;
}

sim::Task<MemoryMigrator::ResidualResult> MemoryMigrator::send_residual(
    vm::Domain& domain, MigStream& stream) {
  ResidualResult res;
  const sim::TimePoint residual_start = sim_.now();
  const core::BlockBitmap snap = [&] {
    obs::ProfScope snap_prof{obs::ProfCategory::kOther};
    return domain.memory().take_dirty_and_reset();
  }();
  res.pages = snap.count_set();
  // Residual is always sent unshaped: it happens inside the downtime.
  res.pages_bytes =
      co_await send_pages(domain, snap, stream, /*shaper=*/nullptr, nullptr);
  MigrationMessage cpu{core::CpuStateMsg{domain.cpu()}};
  res.cpu_bytes = cpu.wire_bytes();
  res.bytes = res.pages_bytes + res.cpu_bytes;
  co_await stream.send(std::move(cpu));
  domain.memory().disable_dirty_log();
  if (tracer_) {
    tracer_->complete(track_, residual_start, "mem_residual",
                      "\"pages\": " + std::to_string(res.pages));
  }
  co_return res;
}

}  // namespace vmig::hv

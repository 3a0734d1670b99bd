#pragma once

#include "workloads/workload.hpp"

namespace vmig::workload {

/// Dynamic web server (SPECweb2005 Banking-like): many concurrent sessions,
/// mostly cache-served reads, and bursty small writes (session state,
/// transaction logs) with significant rewrite locality — the paper measured
/// 25.2% of SPECweb Banking writes rewriting previously-written blocks.
///
/// Dirty data accumulates in the page cache and is flushed in periodic
/// elevator-sorted bursts (pdflush-style), so the disk sees a few large
/// sequential writes rather than a stream of random ones. That keeps the
/// request path CPU/memory-bound, which is why the client-visible
/// throughput barely reacts to a background migration (paper Fig. 5).
struct WebServerParams {
  int connections = 100;
  /// Mean think time between a session's requests.
  sim::Duration think_mean = sim::Duration::millis(1200);
  /// Mean response payload (what throughput accounting sees).
  double response_bytes_mean = 900.0 * 1024.0;
  /// Probability a request misses the page cache and reads the disk.
  double disk_read_probability = 0.02;
  /// Probability a request dirties log/state blocks.
  double write_probability = 0.10;
  /// Blocks dirtied by a writing request.
  std::uint32_t write_burst_min = 1;
  std::uint32_t write_burst_max = 2;
  /// Fraction of flushed blocks that rewrite previously-written blocks —
  /// calibrates the rewrite ratio toward the paper's 25.2%.
  double rewrite_fraction = 0.25;
  /// Page-cache flush period (pdflush).
  sim::Duration flush_interval = sim::Duration::seconds(5);
  /// Pages dirtied per request (session state, heap churn).
  int pages_per_request = 4;
};

class WebServerWorkload final : public Workload {
 public:
  WebServerWorkload(sim::Simulator& sim, vm::Domain& domain, std::uint64_t seed,
                    WebServerParams params = {})
      : Workload{sim, domain, seed}, p_{params} {}

  std::string name() const override { return "webserver"; }

  std::uint64_t requests_served() const noexcept { return requests_; }

  /// End-to-end request latency (includes disk waits and migration
  /// freezes); the tail shows what clients feel during downtime.
  const sim::LatencyHistogram& request_latency() const noexcept {
    return latency_;
  }

 protected:
  sim::Task<void> run() override;

 private:
  sim::Task<void> session(int id);
  sim::Task<void> flusher();

  WebServerParams p_;
  sim::LatencyHistogram latency_;
  std::uint64_t requests_ = 0;
  std::uint64_t pending_dirty_blocks_ = 0;  ///< page-cache dirt awaiting flush
  std::uint64_t append_cursor_ = 0;
  std::uint64_t written_span_ = 0;  ///< extent of the already-written pool
  std::uint64_t region_start_ = 0;
  std::uint64_t region_blocks_ = 0;
  int live_tasks_ = 0;
};

}  // namespace vmig::workload

#include "workloads/web_server.hpp"

#include <algorithm>

namespace vmig::workload {

using namespace vmig::sim::literals;

sim::Task<void> WebServerWorkload::run() {
  const std::uint64_t blocks = disk_blocks();
  // Data + log region: middle 40% of the disk; flushes append within it.
  region_start_ = blocks / 4;
  region_blocks_ = std::max<std::uint64_t>(blocks * 2 / 5, 4096);
  append_cursor_ = 0;
  written_span_ = 0;

  for (int i = 0; i < p_.connections; ++i) {
    ++live_tasks_;
    sim_.spawn(session(i), "web-session");
  }
  ++live_tasks_;
  sim_.spawn(flusher(), "web-flusher");
  while (live_tasks_ > 0) co_await sim_.delay(50_ms);
}

sim::Task<void> WebServerWorkload::session(int id) {
  // Desynchronize session start.
  co_await sim_.delay(sim::Duration::from_seconds(
      rng_.uniform_double() * p_.think_mean.to_seconds()));
  (void)id;
  while (!stop_requested()) {
    co_await sim_.delay(
        sim::Duration::from_seconds(rng_.exponential(p_.think_mean.to_seconds())));
    if (stop_requested()) break;

    // One request, inline so that it takes no coroutine frame of its own.
    const sim::TimePoint arrival = sim_.now();
    co_await domain_.barrier();

    // Most requests are served from the page cache; a few touch the disk.
    if (rng_.bernoulli(p_.disk_read_probability)) {
      const std::uint64_t b =
          region_start_ + rng_.zipf(region_blocks_ - 4, 0.7);
      co_await read_blocks(storage::BlockRange{b, 4});
    }

    // Writes dirty the page cache; the flusher pushes them to disk in bulk.
    if (rng_.bernoulli(p_.write_probability)) {
      pending_dirty_blocks_ += static_cast<std::uint64_t>(
          rng_.uniform_i64(p_.write_burst_min, p_.write_burst_max));
    }

    touch_pages(p_.pages_per_request);
    domain_.cpu().touch();
    account(rng_.exponential(p_.response_bytes_mean));
    latency_.add(sim_.now() - arrival);
    ++requests_;
  }
  --live_tasks_;
}

sim::Task<void> WebServerWorkload::flusher() {
  while (!stop_requested()) {
    co_await sim_.delay(p_.flush_interval);
    if (stop_requested()) break;
    co_await domain_.barrier();
    std::uint64_t todo = pending_dirty_blocks_;
    pending_dirty_blocks_ = 0;

    // Flush each accumulated burst as its own write: appends land
    // back-to-back at the log cursor (no seeks between them), and a
    // rewrite_fraction of bursts rewrite blocks from the hot tail of the
    // already-written pool — which is how the paper's 25.2% SPECweb
    // rewrite-op ratio arises.
    while (todo > 0 && !stop_requested()) {
      const auto burst = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          todo, static_cast<std::uint64_t>(
                    rng_.uniform_i64(p_.write_burst_min, p_.write_burst_max))));
      if (written_span_ > burst && rng_.bernoulli(p_.rewrite_fraction)) {
        const std::uint64_t back =
            burst + rng_.zipf(written_span_ - burst + 1, 0.6);
        const std::uint64_t start =
            region_start_ +
            (append_cursor_ + region_blocks_ - back) % region_blocks_;
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(burst,
                                    region_start_ + region_blocks_ - start));
        co_await write_blocks(storage::BlockRange{start, n});
      } else {
        const std::uint64_t start = region_start_ + append_cursor_;
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(burst, region_blocks_ - append_cursor_));
        co_await write_blocks(storage::BlockRange{start, n});
        append_cursor_ = (append_cursor_ + n) % region_blocks_;
        written_span_ = std::min(written_span_ + n,
                                 static_cast<std::uint64_t>(region_blocks_));
      }
      todo -= burst;
    }
  }
  --live_tasks_;
}

}  // namespace vmig::workload

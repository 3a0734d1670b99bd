#include "core/post_copy.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"

namespace vmig::core {

PostCopyDestination::PostCopyDestination(sim::Simulator& sim,
                                         storage::VirtualDisk& disk,
                                         DirtyBitmap transferred,
                                         vm::DomainId migrated,
                                         MigStream& to_source, bool pull_enabled)
    : sim_{sim},
      disk_{disk},
      transferred_{std::move(transferred)},
      migrated_{migrated},
      to_source_{to_source},
      gates_{sim},
      done_{sim},
      pull_enabled_{pull_enabled} {
  // Pre-size the hot-path maps so the steady state stays allocation-free
  // from the first pull (capacities grow only past a new high-water mark).
  pending_.reserve(64);
  requested_.reserve(64);
  scratch_ids_.reserve(64);
  check_done();  // a zero-residue migration is already synchronized
}

void PostCopyDestination::attach_obs(obs::Tracer* tracer, obs::TrackId track,
                                     obs::Registry* registry) {
  tracer_ = tracer;
  track_ = track;
  if (registry != nullptr) {
    obs_pending_ = &registry->gauge("postcopy.pending_reads");
    obs_stall_ = &registry->histogram("postcopy.read_stall_ns");
  }
}

sim::Task<void> PostCopyDestination::on_request(vm::DomainId domain,
                                                storage::IoOp op,
                                                storage::BlockRange range) {
  // Line 3: requests from domains other than the migrated VM pass through.
  if (domain != migrated_) co_return;

  if (op == storage::IoOp::kWrite) {
    // Lines 5-10: a whole-block overwrite supersedes the source copy; the
    // block no longer needs synchronization. (BM_3 marking happens in
    // blkback's write tracking.) Pending reads of the block — possible only
    // from concurrent guest contexts — see the freshly written data.
    std::uint64_t cancelled = 0;
    // Run-level sweep: visit only the still-dirty runs inside the write
    // window, release their waiters, and clear each run word-at-a-time.
    storage::BlockId from = range.start;
    while (const auto run =
               transferred_.next_set_run(from, range.end(), range.count)) {
      for (storage::BlockId b = run->start; b < run->start + run->len; ++b) {
        release_waiters(b);
      }
      transferred_.clear_range(run->start, run->len);
      cancelled += run->len;
      from = run->start + run->len;
    }
    if (cancelled > 0 && flight_ != nullptr) {
      flight_->overwrite_cancel(
          flight_mig_, sim_.now(), range.start, cancelled,
          cancelled * disk_.geometry().block_size);
    }
    check_done();
    co_return;
  }

  // Lines 11-13: reads of clean blocks submit directly; dirty blocks are
  // pulled from the source and the request parks in the pending list.
  const sim::TimePoint entered = sim_.now();
  bool blocked = false;
  if (pull_enabled_) {
    // Word-level skip to each dirty block of the read, loading only the
    // read's own words; re-queried every iteration since the send suspends
    // and blocks may arrive (or be overwritten) meanwhile.
    for (auto nb = transferred_.next_set_before(range.start, range.end());
         nb.has_value();
         nb = transferred_.next_set_before(*nb + 1, range.end())) {
      const storage::BlockId b = *nb;
      if (requested_.contains(b)) continue;
      if (!pull_slot_free()) {
        // Bounded pending-request list: park without a request; the
        // recovery loop issues the pull once a slot frees.
        ++pulls_deferred_;
        continue;
      }
      co_await send_pull(b, /*is_retry=*/false);
    }
  }
  // vmig-lint: hot-begin -- pull parking: every faulting guest read lands
  // here; parking must not heap-allocate a gate per pull
  for (;;) {
    // Earliest still-inconsistent block in the window (word-level scan);
    // re-queried after every wakeup because the wait suspends.
    const auto nb = transferred_.next_set_before(range.start, range.end());
    if (!nb.has_value()) break;
    blocked = true;
    // vmig-lint: h2-ok -- pooled gate + flat-map shuffle, no node alloc
    const auto [it, inserted] = pending_.try_emplace(*nb);
    if (inserted) it->second = gates_.acquire();
    sim::Gate& gate = gates_.at(it->second);
    if (obs_pending_) obs_pending_->set(static_cast<double>(pending_.size()));
    co_await gate.wait();
  }
  // vmig-lint: hot-end
  if (blocked) {
    ++reads_blocked_;
    const sim::Duration stall = sim_.now() - entered;
    total_stall_ += stall;
    if (stall > max_stall_) max_stall_ = stall;
    if (obs_stall_) obs_stall_->observe(static_cast<double>(stall.ns()));
    if (flight_ != nullptr) {
      flight_->stall(flight_mig_, sim_.now(), range.start, range.count, stall);
    }
    if (tracer_) {
      tracer_->complete(track_, entered, "read_stall",
                        "\"block\": " + std::to_string(range.start) +
                            ", \"count\": " + std::to_string(range.count));
    }
  }
}

sim::Task<void> PostCopyDestination::on_block_received(const DiskBlocksMsg& msg) {
  // Apply only the still-inconsistent sub-runs; drop blocks a local write
  // superseded (paper receive-algorithm lines 2-3).
  const storage::BlockRange range = msg.range;
  // Pull latency must be read before the apply loop erases requested_.
  // Pull responses are single-block; `sent` is set once the request is on
  // the wire, so a zero timestamp means the round trip is not measurable.
  std::int64_t pull_latency_ns = -1;
  if (msg.pull_response && flight_ != nullptr) {
    if (const auto it = requested_.find(range.start);
        it != requested_.end() && it->second.sent.ns() > 0) {
      pull_latency_ns = (sim_.now() - it->second.sent).ns();
    }
  }
  std::uint64_t applied = 0;
  storage::BlockId i = range.start;
  // Apply run-at-a-time: the bitmap cursor yields each contiguous
  // still-inconsistent run for one coalesced disk write. Runs are re-queried
  // from the live bitmap after every write because the write suspends and
  // concurrent guest writes may shrink later runs.
  while (const auto run = transferred_.next_set_run(i, range.end(), range.count)) {
    const storage::BlockId rs = run->start;
    const std::uint32_t n = static_cast<std::uint32_t>(run->len);
    const std::size_t off = static_cast<std::size_t>(rs - range.start);
    co_await disk_.write_segments(storage::BlockRange{rs, n}, msg.tokens,
                                  storage::IoSource::kMigration);
    if (!msg.payloads.empty()) {
      disk_.apply_payloads(
          storage::BlockRange{rs, n},
          std::span<const std::byte>{msg.payloads.data() + off * msg.block_size,
                                     static_cast<std::size_t>(n) * msg.block_size});
    }
    transferred_.clear_range(rs, n);
    for (storage::BlockId b = rs; b < rs + n; ++b) {
      release_waiters(b);
      requested_.erase(b);
    }
    applied += n;
    if (msg.pull_response) {
      stats_.blocks_pulled += n;
    } else {
      stats_.blocks_pushed += n;
    }
    i = rs + n;
  }
  // Everything in the window that was not applied had been superseded by a
  // local write (or an earlier copy) — the paper's receive-rule drop case.
  stats_.blocks_dropped += range.count - applied;
  if (msg.pull_response) {
    stats_.bytes_pull += msg.wire_bytes();
  } else {
    stats_.bytes_push += msg.wire_bytes();
  }
  if (flight_ != nullptr) {
    if (msg.pull_response) {
      flight_->pull_received(flight_mig_, sim_.now(), range.start, range.count,
                             applied, msg.wire_bytes(), pull_latency_ns);
    } else {
      flight_->push_received(flight_mig_, sim_.now(), range.start, range.count,
                             applied, msg.wire_bytes());
    }
  }
  check_done();
}

void PostCopyDestination::force_complete(
    const storage::VirtualDisk& source_of_truth) {
  transferred_.for_each_set([&](std::uint64_t b) {
    disk_.poke_token(b, source_of_truth.token(b));
  });
  transferred_.fill(false);
  // Open the gates in block order. The flat map iterates sorted by key, so
  // the release order is deterministic without a snapshot-and-sort pass;
  // opened gates go straight back to the pool (waiters resume through the
  // simulator queue and never touch the gate again).
  for (const auto& [b, gi] : pending_) {
    gates_.at(gi).open();
    gates_.release(gi);
  }
  pending_.clear();
  requested_.clear();
  if (obs_pending_) obs_pending_->set(0.0);
  check_done();
}

sim::Task<void> PostCopyDestination::send_pull(storage::BlockId b,
                                               bool is_retry) {
  // Reserve the slot before the co_await so a concurrent reader of the same
  // block sees it outstanding instead of double-requesting.
  MigrationMessage req{PullRequestMsg{b}};
  {
    // Scope ends before the send suspends.
    obs::ProfScope prof{obs::ProfCategory::kPostCopyPull};
    obs::prof_count(obs::ProfCategory::kPostCopyPull);
    PullState& ps = requested_[b];
    if (is_retry) {
      ps.timeout = ps.timeout.scaled(rcfg_.pull_backoff);
      ++ps.retries;
      ++pull_retries_;
    } else {
      ps.timeout = rcfg_.pull_timeout;
    }
    ++stats_.pull_requests;
    if (flight_ != nullptr) {
      flight_->pull_requested(flight_mig_, req.wire_bytes());
    }
    if (tracer_) {
      tracer_->instant(track_, is_retry ? "pull_retry" : "pull_request",
                       "\"block\": " + std::to_string(b));
    }
  }
  co_await to_source_.send(std::move(req));
  // Arm the retry deadline only once the request is on the wire (the send
  // itself may have queued behind an outage).
  if (const auto it = requested_.find(b); it != requested_.end()) {
    it->second.sent = sim_.now();
  }
}

sim::Task<void> PostCopyDestination::recovery_tick() {
  if (!pull_enabled_) co_return;

  // 1. Re-send overdue pulls (lost request or lost response), with
  //    exponential backoff per block. Snapshot first: sends suspend, and
  //    arriving blocks mutate requested_ under us.
  if (rcfg_.pull_timeout > sim::Duration::zero()) {
    scratch_ids_.clear();
    for (const auto& [b, ps] : requested_) {
      if (ps.timeout > sim::Duration::zero() && sim_.now() >= ps.sent + ps.timeout) {
        scratch_ids_.push_back(b);
      }
    }
    for (const storage::BlockId b : scratch_ids_) {
      if (!transferred_.test(b) || !requested_.contains(b)) continue;
      co_await send_pull(b, /*is_retry=*/true);
    }
  }

  // 2. Issue pulls deferred by the outstanding bound, oldest block first
  //    (the flat map iterates in sorted key order — deterministic as-is).
  scratch_ids_.clear();
  for (const auto& [b, gi] : pending_) scratch_ids_.push_back(b);
  for (const storage::BlockId b : scratch_ids_) {
    if (!pull_slot_free()) break;
    if (!transferred_.test(b) || requested_.contains(b)) continue;
    co_await send_pull(b, /*is_retry=*/false);
  }

  // 3. The source's push sweep is over, so any block still marked
  //    transferred was lost in flight: schedule re-pulls (bounded per tick
  //    by the outstanding cap; later ticks mop up the rest).
  if (push_complete_seen_) {
    scratch_ids_.clear();
    transferred_.for_each_set([this](std::uint64_t b) {
      if (!requested_.contains(b)) scratch_ids_.push_back(b);
    });
    for (const storage::BlockId b : scratch_ids_) {
      if (!pull_slot_free()) break;
      if (!transferred_.test(b) || requested_.contains(b)) continue;
      co_await send_pull(b, /*is_retry=*/false);
    }
  }
}

sim::Task<void> PostCopyDestination::run_recovery() {
  if (rcfg_.interval <= sim::Duration::zero()) co_return;
  while (!done_.is_open()) {
    co_await sim_.delay(rcfg_.interval);
    if (done_.is_open()) break;
    co_await recovery_tick();
  }
}

void PostCopyDestination::release_waiters(storage::BlockId b) {
  obs::ProfScope prof{obs::ProfCategory::kPostCopyPull};
  const auto it = pending_.find(b);
  if (it == pending_.end()) return;
  const std::uint32_t gi = it->second;
  gates_.at(gi).open();
  gates_.release(gi);
  pending_.erase(it);
  if (obs_pending_) obs_pending_->set(static_cast<double>(pending_.size()));
}

void PostCopyDestination::check_done() {
  if (transferred_.none() && !done_.is_open()) done_.open();
}

PostCopySource::PostCopySource(sim::Simulator& sim, storage::VirtualDisk& disk,
                               DirtyBitmap remaining, MigStream& to_dest,
                               std::uint32_t push_chunk_blocks,
                               net::TokenBucket* shaper)
    : sim_{sim},
      disk_{disk},
      remaining_{std::move(remaining)},
      to_dest_{to_dest},
      push_chunk_{push_chunk_blocks == 0 ? 1 : push_chunk_blocks},
      shaper_{shaper},
      wake_{sim} {}

void PostCopySource::attach_obs(obs::Tracer* tracer, obs::TrackId track,
                                obs::Registry* registry) {
  tracer_ = tracer;
  track_ = track;
  if (registry != nullptr) {
    obs_pull_queue_ = &registry->gauge("postcopy.pull_queue");
  }
}

// vmig-lint: hot-begin -- source pull intake: one call per pull request
void PostCopySource::enqueue_pull(storage::BlockId b) {
  obs::ProfScope prof{obs::ProfCategory::kPostCopyPull};
  obs::prof_count(obs::ProfCategory::kPostCopyPull);
  // vmig-lint: h2-ok -- bounded by pull window; deque reuses its chunks
  pulls_.push_back(b);
  if (obs_pull_queue_) {
    obs_pull_queue_->set(static_cast<double>(pulls_.size()));
  }
  wake_.notify_all();
}
// vmig-lint: hot-end

sim::Task<void> PostCopySource::run() {
  while (!stop_requested_) {
    // Pull requests are served preferentially (paper §IV-A-3).
    if (!pulls_.empty()) {
      const storage::BlockId b = pulls_.front();
      pulls_.pop_front();
      if (obs_pull_queue_) {
        obs_pull_queue_->set(static_cast<double>(pulls_.size()));
      }
      // During the push sweep, a pull for an already-sent block means the
      // response (or push) is still in flight — skip it. After the sweep a
      // repeated pull can only be the destination's loss recovery, so serve
      // it unconditionally.
      if (!remaining_.test(b) && !complete_announced_) continue;
      const sim::TimePoint serve_start = sim_.now();
      const storage::BlockRange r{b, 1};
      co_await disk_.read(r, storage::IoSource::kMigration);
      remaining_.clear(b);
      DiskBlocksMsg msg = [&] {
        // Message assembly walks disk tokens; attribute it (and its buffer
        // allocations) to disk iteration, not the dispatch loop.
        obs::ProfScope prof{obs::ProfCategory::kDiskIteration};
        return DiskBlocksMsg::from_disk(disk_, r, /*pulled=*/true);
      }();
      ++stats_.blocks_pulled;
      stats_.bytes_pull += msg.wire_bytes();
      co_await to_dest_.send(MigrationMessage{std::move(msg)}, shaper_);
      if (tracer_) {
        tracer_->complete(track_, serve_start, "pull",
                          "\"block\": " + std::to_string(b));
      }
      continue;
    }

    if (remaining_.any()) {
      auto next = remaining_.next_set(cursor_);
      if (!next) {
        cursor_ = 0;
        next = remaining_.next_set(0);
        if (!next) continue;  // drained; loop re-checks from the top
      }
      const std::uint64_t len = remaining_.run_length(*next, push_chunk_);
      const storage::BlockRange r{*next, static_cast<std::uint32_t>(len)};
      const sim::TimePoint serve_start = sim_.now();
      co_await disk_.read(r, storage::IoSource::kMigration);
      remaining_.clear_range(r.start, r.count);
      cursor_ = r.end();
      DiskBlocksMsg msg = [&] {
        obs::ProfScope prof{obs::ProfCategory::kDiskIteration};
        return DiskBlocksMsg::from_disk(disk_, r, /*pulled=*/false);
      }();
      stats_.blocks_pushed += r.count;
      stats_.bytes_push += msg.wire_bytes();
      if (flight_ != nullptr) {
        flight_->push_sent(flight_mig_, r.count, msg.wire_bytes());
      }
      co_await to_dest_.send(MigrationMessage{std::move(msg)}, shaper_);
      if (tracer_) {
        tracer_->complete(track_, serve_start, "push",
                          "\"start\": " + std::to_string(r.start) +
                              ", \"count\": " + std::to_string(r.count));
      }
      continue;
    }

    if (!complete_announced_) {
      // Push sweep drained: announce it on the reliable control plane so
      // the destination can detect lost pushes, then stay alive to serve
      // recovery pulls until the destination reports sync-complete.
      complete_announced_ = true;
      finished_ = true;
      co_await to_dest_.send(MigrationMessage{ControlMsg{Control::kPushComplete}});
      continue;
    }

    co_await wake_.wait();
  }
  finished_ = true;
}

}  // namespace vmig::core

#include "baselines/delta_forward.hpp"

#include <algorithm>

namespace vmig::baseline {

namespace {
constexpr std::uint64_t kMiB = 1024ull * 1024ull;
}

/// Source-side write throttling: guest writes stall while the forward queue
/// is over depth (the network cannot keep up with the dirty rate).
class DeltaForwardMigration::ThrottleInterceptor final : public vm::IoInterceptor {
 public:
  explicit ThrottleInterceptor(DeltaForwardMigration& owner) : o_{owner} {}

  sim::Task<void> on_request(vm::DomainId domain, storage::IoOp op,
                             storage::BlockRange) override {
    if (domain != o_.domain_.id() || op != storage::IoOp::kWrite) co_return;
    if (o_.forward_q_.size() >= o_.p_.throttle_queue_depth) {
      ++o_.rep_.throttled_writes;
      while (o_.forward_q_.size() >= o_.p_.throttle_queue_depth) {
        co_await o_.throttle_wake_.wait();
      }
    }
  }

 private:
  DeltaForwardMigration& o_;
};

/// Destination-side resume blocker: "after the VM resumes on the
/// destination, all the write accesses must be blocked before all forwarded
/// deltas are applied" — and reads too, which see stale data otherwise.
class DeltaForwardMigration::ResumeBlocker final : public vm::IoInterceptor {
 public:
  explicit ResumeBlocker(DeltaForwardMigration& owner) : o_{owner} {}

  sim::Task<void> on_request(vm::DomainId domain, storage::IoOp,
                             storage::BlockRange) override {
    if (domain != o_.domain_.id()) co_return;
    if (!o_.replay_drained_->is_open()) {
      co_await o_.replay_drained_->wait();
    }
  }

 private:
  DeltaForwardMigration& o_;
};

DeltaForwardMigration::DeltaForwardMigration(sim::Simulator& sim,
                                             core::MigrationConfig cfg,
                                             vm::Domain& domain,
                                             hv::Host& source, hv::Host& dest,
                                             DeltaForwardParams params)
    : sim_{sim},
      cfg_{cfg},
      p_{params},
      domain_{domain},
      src_{source},
      dst_{dest},
      fwd_{sim, source.link_to(dest)},
      shadow_mem_{domain.memory().total_bytes() / kMiB,
                  domain.memory().page_size()},
      forward_wake_{sim},
      throttle_wake_{sim},
      replay_wake_{sim} {
  rep_.method = "delta-forward";
  replay_drained_ = std::make_unique<sim::Gate>(sim);
}

sim::Task<void> DeltaForwardMigration::forwarder_loop() {
  for (;;) {
    while (forward_q_.empty()) {
      if (forwarding_done_) co_return;
      co_await forward_wake_.wait();
    }
    core::DiskBlocksMsg msg = std::move(forward_q_.front());
    forward_q_.pop_front();
    throttle_wake_.notify_all();
    core::MigrationMessage wire{std::move(msg)};
    rep_.delta_bytes += wire.wire_bytes();
    rep_.base.bytes_disk_retransfer += wire.wire_bytes();
    co_await fwd_.send(std::move(wire));
  }
}

sim::Task<void> DeltaForwardMigration::apply_delta_queue() {
  for (;;) {
    while (replay_q_.empty()) {
      if (freeze_marker_seen_) {
        replay_drained_->open();
        co_return;
      }
      co_await replay_wake_.wait();
    }
    const core::DiskBlocksMsg msg = std::move(replay_q_.front());
    replay_q_.pop_front();
    if (cfg_.blkd_cpu_per_mib > sim::Duration::zero()) {
      co_await sim_.delay(cfg_.blkd_cpu_per_mib.scaled(
          static_cast<double>(msg.range.bytes(msg.block_size)) /
          static_cast<double>(kMiB)));
    }
    co_await dst_.vbd_for(domain_.id()).write_segments(msg.range, msg.tokens,
                                      storage::IoSource::kMigration);
    msg.apply_payloads_to(dst_.vbd_for(domain_.id()));
  }
}

sim::Task<void> DeltaForwardMigration::dest_recv_loop() {
  for (;;) {
    auto m = co_await fwd_.recv();
    if (!m) break;
    if (auto* blocks = m->get_if<core::DiskBlocksMsg>()) {
      if (blocks->delta) {
        // Deltas queue until the bulk copy has landed.
        replay_q_.push_back(std::move(*blocks));
        replay_wake_.notify_all();
      } else {
        if (cfg_.blkd_cpu_per_mib > sim::Duration::zero()) {
          co_await sim_.delay(cfg_.blkd_cpu_per_mib.scaled(
              static_cast<double>(blocks->range.bytes(blocks->block_size)) /
              static_cast<double>(kMiB)));
        }
        co_await dst_.vbd_for(domain_.id()).write_segments(blocks->range, blocks->tokens,
                                          storage::IoSource::kMigration);
        blocks->apply_payloads_to(dst_.vbd_for(domain_.id()));
      }
    } else if (const auto* pages = m->get_if<core::MemPagesMsg>()) {
      pages->apply_to(shadow_mem_);
    } else if (const auto* c = m->get_if<core::ControlMsg>()) {
      if (c->kind == core::Control::kIterationEnd) {
        // Bulk copy complete: begin replaying queued deltas.
        bulk_done_ = true;
        sim_.spawn(apply_delta_queue(), "df-replay");
      } else if (c->kind == core::Control::kEnterPostCopy) {
        // All deltas are in (FIFO stream): guest frozen; verify memory now.
        freeze_marker_seen_ = true;
        rep_.base.memory_consistent =
            shadow_mem_.content_equals(domain_.memory());
        replay_wake_.notify_all();
      }
    }
  }
}

sim::Task<BaselineReport> DeltaForwardMigration::run() {
  auto& rep = rep_.base;
  rep.started = sim_.now();

  auto dest_rx = sim_.spawn(dest_recv_loop(), "df-dest-rx");

  // Tap every guest write: capture the written data as a delta.
  ThrottleInterceptor throttle{*this};
  src_.backend_for(domain_.id()).install_interceptor(&throttle);
  src_.backend_for(domain_.id()).set_write_observer([this](storage::BlockRange r) {
    core::DiskBlocksMsg delta = core::DiskBlocksMsg::from_disk(
        src_.vbd_for(domain_.id()), r, /*pulled=*/false, /*is_delta=*/true);
    ++rep_.deltas_forwarded;
    rep_.base.blocks_retransferred += r.count;
    for (storage::BlockId b = r.start; b < r.end(); ++b) {
      if (++delta_counts_[b] > 1) {
        rep_.redundant_delta_bytes += src_.vbd_for(domain_.id()).geometry().block_size;
      }
    }
    forward_q_.push_back(std::move(delta));
    forward_wake_.notify_one();
  });
  auto forwarder = sim_.spawn(forwarder_loop(), "df-forwarder");

  // ---- Bulk disk copy, while the guest keeps writing ----
  const auto& geo = src_.vbd_for(domain_.id()).geometry();
  for (storage::BlockId b = 0; b < geo.block_count;
       b += cfg_.disk_chunk_blocks) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.disk_chunk_blocks, geo.block_count - b));
    const storage::BlockRange r{b, n};
    co_await src_.vbd_for(domain_.id()).read(r, storage::IoSource::kMigration);
    if (cfg_.blkd_cpu_per_mib > sim::Duration::zero()) {
      co_await sim_.delay(cfg_.blkd_cpu_per_mib.scaled(
          static_cast<double>(r.bytes(geo.block_size)) /
          static_cast<double>(kMiB)));
    }
    core::MigrationMessage msg{
        core::DiskBlocksMsg::from_disk(src_.vbd_for(domain_.id()), r, /*pulled=*/false)};
    rep.bytes_disk_first_pass += msg.wire_bytes();
    rep.blocks_first_pass += n;
    co_await fwd_.send(std::move(msg));
  }
  rep.disk_iterations = 1;
  co_await fwd_.send(
      core::MigrationMessage{core::ControlMsg{core::Control::kIterationEnd}});

  // ---- Memory pre-copy, then freeze ----
  hv::MemoryMigrator mm{sim_, cfg_};
  const auto pre = co_await mm.precopy(domain_, fwd_, nullptr);
  rep.mem_iterations = pre.iterations;
  rep.pages_precopied = pre.pages_sent;
  rep.bytes_memory_precopy = pre.bytes_sent;

  domain_.suspend();
  rep.suspended = sim_.now();
  co_await sim_.delay(cfg_.suspend_overhead);
  const auto res = co_await mm.send_residual(domain_, fwd_);
  rep.pages_residual = res.pages;
  rep.bytes_freeze_residual = res.bytes;

  // Drain the forward queue (guest frozen, so it only shrinks), then mark.
  src_.backend_for(domain_.id()).remove_interceptor();
  src_.backend_for(domain_.id()).clear_write_observer();
  forwarding_done_ = true;
  forward_wake_.notify_all();
  co_await forwarder;
  co_await fwd_.send(
      core::MigrationMessage{core::ControlMsg{core::Control::kEnterPostCopy}});

  // ---- Resume at the destination, I/O blocked until replay drains ----
  ResumeBlocker blocker{*this};
  src_.detach_domain(domain_);
  dst_.attach_domain(domain_);
  dst_.backend_for(domain_.id()).install_interceptor(&blocker);
  if (cfg_.track_for_incremental) {
    dst_.backend_for(domain_.id()).start_write_tracking(cfg_.bitmap_kind);
  }
  co_await sim_.delay(cfg_.resume_overhead);
  domain_.resume();
  rep.resumed = sim_.now();

  co_await replay_drained_->wait();
  rep_.io_block_time = sim_.now() - rep.resumed;
  dst_.backend_for(domain_.id()).remove_interceptor();
  rep.synchronized = sim_.now();

  // Consistency: every block matches the source's frozen state unless the
  // guest rewrote it at the destination after the replay drain.
  const core::DirtyBitmap bm3 = dst_.backend_for(domain_.id()).tracking()
                                    ? dst_.backend_for(domain_.id()).snapshot_dirty()
                                    : core::DirtyBitmap{cfg_.bitmap_kind,
                                                        geo.block_count};
  bool ok = true;
  for (std::uint64_t b = 0; ok && b < geo.block_count; ++b) {
    if (!bm3.test(b) && src_.vbd_for(domain_.id()).token(b) != dst_.vbd_for(domain_.id()).token(b)) ok = false;
  }
  rep.disk_consistent = ok;

  fwd_.close();
  co_await dest_rx;
  co_return rep_;
}

}  // namespace vmig::baseline

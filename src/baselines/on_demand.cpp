#include "baselines/on_demand.hpp"

namespace vmig::baseline {

namespace {
constexpr std::uint64_t kMiB = 1024ull * 1024ull;
}

OnDemandMigration::OnDemandMigration(sim::Simulator& sim,
                                     core::MigrationConfig cfg,
                                     vm::Domain& domain, hv::Host& source,
                                     hv::Host& dest)
    : sim_{sim},
      cfg_{cfg},
      domain_{domain},
      src_{source},
      dst_{dest},
      fwd_{sim, source.link_to(dest)},
      rev_{sim, dest.link_to(source)},
      shadow_mem_{domain.memory().total_bytes() / kMiB,
                  domain.memory().page_size()} {
  rep_.method = "on-demand";
}

sim::Task<void> OnDemandMigration::mem_receiver_loop() {
  // Phase 1 only: memory pages during pre-copy and freeze.
  for (;;) {
    auto m = co_await fwd_.recv();
    if (!m) break;
    if (const auto* pages = m->get_if<core::MemPagesMsg>()) {
      pages->apply_to(shadow_mem_);
    } else if (const auto* c = m->get_if<core::ControlMsg>()) {
      if (c->kind == core::Control::kEnterPostCopy) break;
    }
  }
}

sim::Task<void> OnDemandMigration::fetch_responder_loop() {
  // Source side: answer fetch requests forever — the residual dependency.
  for (;;) {
    auto m = co_await rev_.recv();
    if (!m) break;
    if (const auto* pull = m->get_if<core::PullRequestMsg>()) {
      const storage::BlockRange r{pull->block, 1};
      co_await src_.vbd_for(domain_.id()).read(r, storage::IoSource::kMigration);
      co_await fwd_.send(core::MigrationMessage{
          core::DiskBlocksMsg::from_disk(src_.vbd_for(domain_.id()), r, /*pulled=*/true)});
    }
  }
}

sim::Task<void> OnDemandMigration::block_receiver_loop() {
  // Phase 2: fetched blocks arriving at the destination.
  for (;;) {
    auto m = co_await fwd_.recv();
    if (!m) break;
    if (const auto* blocks = m->get_if<core::DiskBlocksMsg>()) {
      co_await fetcher_->on_block_received(*blocks);
    }
  }
}

sim::Task<BaselineReport> OnDemandMigration::run(sim::Duration observe_window) {
  auto& rep = rep_.base;
  rep.started = sim_.now();

  // ---- Memory + CPU migration, Xen-style ----
  auto mem_rx = sim_.spawn(mem_receiver_loop(), "od-mem-rx");
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
  co_await fwd_.send(
      core::MigrationMessage{core::ControlMsg{core::Control::kEnterPostCopy}});
  co_await mem_rx;
  rep.memory_consistent = shadow_mem_.content_equals(domain_.memory());

  // ---- Resume with every block remote ----
  core::DirtyBitmap remote{cfg_.bitmap_kind, dst_.vbd_for(domain_.id()).geometry().block_count,
                           /*initially_set=*/true};
  fetcher_ = std::make_unique<core::PostCopyDestination>(
      sim_, dst_.vbd_for(domain_.id()), std::move(remote), domain_.id(), rev_);
  src_.detach_domain(domain_);
  dst_.attach_domain(domain_);
  dst_.backend_for(domain_.id()).install_interceptor(fetcher_.get());
  // Track post-resume writes so the end-state verification can exclude
  // blocks the guest legitimately rewrote at the destination.
  dst_.backend_for(domain_.id()).start_write_tracking(cfg_.bitmap_kind);

  auto responder = sim_.spawn(fetch_responder_loop(), "od-responder");
  auto block_rx = sim_.spawn(block_receiver_loop(), "od-block-rx");

  co_await sim_.delay(cfg_.resume_overhead);
  domain_.resume();
  rep.resumed = sim_.now();

  // ---- Observe the guest depending on the source ----
  co_await sim_.delay(observe_window);

  rep_.remote_fetches = fetcher_->stats().blocks_pulled;
  rep_.remote_blocks_left = fetcher_->transferred().count_set();
  rep_.residual_dependency = rep_.remote_blocks_left > 0;
  rep.blocks_pulled = rep_.remote_fetches;
  rep.bytes_postcopy_pull = fetcher_->stats().bytes_pull +
                            fetcher_->stats().pull_requests *
                                core::kMsgHeaderBytes;
  // "Synchronized" never truly happens; stamp the observation end so the
  // report's total_time covers the measured interval.
  rep.synchronized = sim_.now();

  // ---- Teardown: force-sync so the simulation can wind down ----
  fetcher_->force_complete(src_.vbd_for(domain_.id()));
  dst_.backend_for(domain_.id()).remove_interceptor();
  const core::DirtyBitmap written = dst_.backend_for(domain_.id()).snapshot_dirty();
  bool ok = true;
  for (std::uint64_t b = 0; ok && b < dst_.vbd_for(domain_.id()).geometry().block_count; ++b) {
    if (!written.test(b) && src_.vbd_for(domain_.id()).token(b) != dst_.vbd_for(domain_.id()).token(b)) {
      ok = false;
    }
  }
  rep.disk_consistent = ok;
  fwd_.close();
  rev_.close();
  co_await responder;
  co_await block_rx;
  co_return rep_;
}

}  // namespace vmig::baseline

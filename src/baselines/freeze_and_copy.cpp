#include "baselines/freeze_and_copy.hpp"

namespace vmig::baseline {

namespace {
constexpr std::uint64_t kMiB = 1024ull * 1024ull;
}

FreezeAndCopyMigration::FreezeAndCopyMigration(sim::Simulator& sim,
                                               core::MigrationConfig cfg,
                                               vm::Domain& domain,
                                               hv::Host& source, hv::Host& dest)
    : sim_{sim},
      cfg_{cfg},
      domain_{domain},
      src_{source},
      dst_{dest},
      fwd_{sim, source.link_to(dest)},
      shadow_mem_{domain.memory().total_bytes() / kMiB,
                  domain.memory().page_size()} {
  rep_.method = "freeze-and-copy";
}

sim::Task<void> FreezeAndCopyMigration::receiver_loop() {
  for (;;) {
    auto m = co_await fwd_.recv();
    if (!m) break;
    if (const auto* blocks = m->get_if<core::DiskBlocksMsg>()) {
      co_await dst_.vbd_for(domain_.id()).write_segments(blocks->range, blocks->tokens,
                                        storage::IoSource::kMigration);
      blocks->apply_payloads_to(dst_.vbd_for(domain_.id()));
    } else if (const auto* pages = m->get_if<core::MemPagesMsg>()) {
      pages->apply_to(shadow_mem_);
    }
    // CPU state needs no application in the shadow model.
  }
}

sim::Task<BaselineReport> FreezeAndCopyMigration::run() {
  auto& rep = rep_.base;
  rep.started = sim_.now();

  auto receiver = sim_.spawn(receiver_loop(), "fc-receiver");

  // Freeze first — that is the whole point (and problem) of this scheme.
  domain_.suspend();
  rep.suspended = sim_.now();
  co_await sim_.delay(cfg_.suspend_overhead);

  // Ship the disk, every block exactly once.
  const auto& geo = src_.vbd_for(domain_.id()).geometry();
  for (storage::BlockId b = 0; b < geo.block_count;
       b += cfg_.disk_chunk_blocks) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.disk_chunk_blocks, geo.block_count - b));
    const storage::BlockRange r{b, n};
    co_await src_.vbd_for(domain_.id()).read(r, storage::IoSource::kMigration);
    if (cfg_.blkd_cpu_per_mib > sim::Duration::zero()) {
      co_await sim_.delay(cfg_.blkd_cpu_per_mib.scaled(
          static_cast<double>(r.bytes(geo.block_size)) / (1024.0 * 1024.0)));
    }
    core::MigrationMessage msg{
        core::DiskBlocksMsg::from_disk(src_.vbd_for(domain_.id()), r, /*pulled=*/false)};
    rep.bytes_disk_first_pass += msg.wire_bytes();
    rep.blocks_first_pass += n;
    co_await fwd_.send(std::move(msg));
  }
  rep.disk_iterations = 1;

  // Ship all of memory, then the CPU context.
  hv::MemoryMigrator mm{sim_, cfg_};
  rep.bytes_memory_precopy +=
      co_await mm.send_all_pages(domain_, fwd_, nullptr, nullptr);
  rep.pages_precopied = domain_.memory().page_count();
  core::MigrationMessage cpu{core::CpuStateMsg{domain_.cpu()}};
  rep.bytes_freeze_residual += cpu.wire_bytes();
  co_await fwd_.send(std::move(cpu));

  fwd_.close();
  co_await receiver;  // everything applied at the destination

  rep.memory_consistent = shadow_mem_.content_equals(domain_.memory());
  src_.detach_domain(domain_);
  dst_.attach_domain(domain_);
  co_await sim_.delay(cfg_.resume_overhead);
  domain_.resume();
  rep.resumed = sim_.now();
  rep.synchronized = sim_.now();
  rep.disk_consistent = src_.vbd_for(domain_.id()).content_equals(dst_.vbd_for(domain_.id()));
  co_return rep_;
}

}  // namespace vmig::baseline

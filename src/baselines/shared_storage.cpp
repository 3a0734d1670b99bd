#include "baselines/shared_storage.hpp"

namespace vmig::baseline {

sim::Task<void> SharedStorageMigration::receiver_loop() {
  for (;;) {
    auto m = co_await fwd_.recv();
    if (!m) break;
    if (const auto* pages = m->get_if<core::MemPagesMsg>()) {
      pages->apply_to(shadow_mem_);
    }
  }
}

sim::Task<BaselineReport> SharedStorageMigration::run() {
  auto& rep = rep_.base;
  rep.started = sim_.now();
  auto receiver = sim_.spawn(receiver_loop(), "ss-receiver");

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

  fwd_.close();
  co_await receiver;

  rep.memory_consistent = shadow_mem_.content_equals(domain_.memory());
  // Move the domain; the frontend stays on the shared storage (source-side
  // backend stands in for the SAN both hosts can reach).
  vm::BlkBackend* shared = domain_.frontend().backend();
  src_.detach_domain(domain_);
  dst_.attach_domain(domain_);
  domain_.frontend().connect(shared);
  co_await sim_.delay(cfg_.resume_overhead);
  domain_.resume();
  rep.resumed = sim_.now();
  rep.synchronized = sim_.now();
  rep.disk_consistent = true;  // by construction: storage is shared
  co_return rep_;
}

}  // namespace vmig::baseline

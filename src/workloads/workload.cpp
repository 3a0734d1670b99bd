#include "workloads/workload.hpp"

namespace vmig::workload {

using namespace vmig::sim::literals;

Workload::Workload(sim::Simulator& sim, vm::Domain& domain, std::uint64_t seed)
    : sim_{sim}, domain_{domain}, rng_{seed}, meter_{1_s, "B/s"} {}

void Workload::start() { handle_ = sim_.spawn(run(), name()); }

vm::GuestIo Workload::read_blocks(storage::BlockRange r) {
  if (trace_ != nullptr) trace_->record(sim_.now(), storage::IoOp::kRead, r);
  return domain_.disk_read(r);
}

vm::GuestIo Workload::write_blocks(storage::BlockRange r) {
  if (trace_ != nullptr) trace_->record(sim_.now(), storage::IoOp::kWrite, r);
  return domain_.disk_write(r);
}

void Workload::touch_pages(int n) {
  const std::uint64_t pages = domain_.memory().page_count();
  for (int i = 0; i < n; ++i) {
    domain_.touch_memory(rng_.uniform_u64(pages));
  }
}

std::uint64_t Workload::disk_blocks() const {
  const auto* be = domain_.frontend().backend();
  return be != nullptr ? be->disk().geometry().block_count : 0;
}

}  // namespace vmig::workload

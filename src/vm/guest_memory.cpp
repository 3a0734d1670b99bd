#include "vm/guest_memory.hpp"

#include <cassert>

namespace vmig::vm {

GuestMemory::GuestMemory(std::uint64_t mib, std::uint32_t page_size)
    : page_size_{page_size},
      page_count_{mib * 1024 * 1024 / page_size},
      versions_{sim::make_zeroed_array<std::uint64_t>(page_count_)},
      dirty_{page_count_} {}

void GuestMemory::write_page(PageId p) {
  assert(p < page_count_);
  versions_[p] = next_version_++;
  ++write_count_;
  if (log_enabled_) dirty_.set(p);
}

void GuestMemory::enable_dirty_log() {
  log_enabled_ = true;
  dirty_.fill(false);
}

void GuestMemory::disable_dirty_log() { log_enabled_ = false; }

core::BlockBitmap GuestMemory::take_dirty_and_reset() {
  core::BlockBitmap snap = dirty_;
  dirty_.fill(false);
  return snap;
}

}  // namespace vmig::vm

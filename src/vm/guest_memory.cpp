#include "vm/guest_memory.hpp"

#include <algorithm>
#include <cassert>

namespace vmig::vm {

GuestMemory::GuestMemory(std::uint64_t mib, std::uint32_t page_size)
    : page_size_{page_size},
      page_count_{mib * 1024 * 1024 / page_size},
      dirty_{page_count_} {}

void GuestMemory::reserve_versions() {
  if (!versions_) versions_ = sim::make_zeroed_array<std::uint64_t>(page_count_);
}

void GuestMemory::write_page(PageId p) {
  assert(p < page_count_);
  reserve_versions();
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

std::span<const std::uint64_t> GuestMemory::snapshot_run(
    PageId first, std::uint64_t count) const {
  assert(first + count <= page_count_);
  payload_entries_ += 1;
  if (!versions_) return {};
  payload_entries_ += count;
  return {versions_.get() + first, count};
}

void GuestMemory::apply_versions(PageId first,
                                 std::span<const std::uint64_t> versions) {
  assert(first + versions.size() <= page_count_);
  reserve_versions();
  std::copy(versions.begin(), versions.end(), versions_.get() + first);
}

void GuestMemory::apply_zero(PageId first, std::uint64_t count) {
  assert(first + count <= page_count_);
  if (versions_) std::fill_n(versions_.get() + first, count, 0);
}

bool GuestMemory::content_equals(const GuestMemory& o) const {
  if (page_count_ != o.page_count_) return false;
  const auto all_zero = [n = page_count_](const std::uint64_t* v) {
    return std::all_of(v, v + n, [](std::uint64_t x) { return x == 0; });
  };
  if (!versions_) return !o.versions_ || all_zero(o.versions_.get());
  if (!o.versions_) return all_zero(versions_.get());
  return std::equal(versions_.get(), versions_.get() + page_count_,
                    o.versions_.get());
}

}  // namespace vmig::vm

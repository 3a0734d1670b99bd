#pragma once

#include <algorithm>
#include <cstdint>

#include "core/block_bitmap.hpp"
#include "simcore/zeroed_array.hpp"
#include "vm/types.hpp"

namespace vmig::vm {

/// Guest physical memory model.
///
/// Pages carry a 64-bit version (bumped on every guest write) instead of
/// real contents — enough to verify that memory migration moves exactly the
/// right pages, at 8 bytes/page of host cost. A hypervisor-style dirty log
/// (shadow-page-table write tracking in Xen) can be enabled around pre-copy
/// iterations.
class GuestMemory {
 public:
  explicit GuestMemory(std::uint64_t mib, std::uint32_t page_size = 4096);

  std::uint64_t page_count() const noexcept { return page_count_; }
  std::uint32_t page_size() const noexcept { return page_size_; }
  std::uint64_t total_bytes() const noexcept {
    return page_count() * page_size_;
  }

  /// Guest write to a page: bumps the version; marks the dirty log when on.
  void write_page(PageId p);

  std::uint64_t version(PageId p) const { return versions_[p]; }

  /// Install a page version received from a migration stream.
  void apply_page(PageId p, std::uint64_t version) { versions_[p] = version; }

  /// True iff every page version matches (migration correctness check).
  bool content_equals(const GuestMemory& o) const {
    return page_count_ == o.page_count_ &&
           std::equal(versions_.get(), versions_.get() + page_count_,
                      o.versions_.get());
  }

  // ---- Hypervisor dirty log ----

  void enable_dirty_log();
  void disable_dirty_log();
  bool dirty_log_enabled() const noexcept { return log_enabled_; }

  std::uint64_t dirty_page_count() const noexcept { return dirty_.count_set(); }

  /// Snapshot the dirty log and clear it (start of a pre-copy iteration).
  core::BlockBitmap take_dirty_and_reset();

  const core::BlockBitmap& dirty_log() const noexcept { return dirty_; }

  /// Total guest page writes ever (workload intensity diagnostics).
  std::uint64_t write_count() const noexcept { return write_count_; }

 private:
  std::uint32_t page_size_;
  std::uint64_t page_count_;
  /// Allocated zeroed and untouched: version 0 is a never-written page,
  /// and a guest pays only for the pages it writes.
  sim::ZeroedArray<std::uint64_t> versions_;
  core::BlockBitmap dirty_;
  bool log_enabled_ = false;
  std::uint64_t write_count_ = 0;
  std::uint64_t next_version_ = 1;
};

}  // namespace vmig::vm

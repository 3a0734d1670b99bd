#pragma once

#include <cstdint>
#include <span>

#include "core/block_bitmap.hpp"
#include "simcore/zeroed_array.hpp"
#include "vm/types.hpp"

namespace vmig::vm {

/// Guest physical memory model.
///
/// Pages carry a 64-bit version (bumped on every guest write) instead of
/// real contents — enough to verify that memory migration moves exactly the
/// right pages, at 8 bytes/page of host cost. The version array is
/// allocated by the first guest write or applied run from written memory;
/// until then every page reads version 0. A
/// hypervisor-style dirty log (shadow-page-table write tracking in Xen) can
/// be enabled around pre-copy iterations.
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

  std::uint64_t version(PageId p) const {
    return versions_ ? versions_[p] : 0;
  }

  /// The versions of pages [first, first + count) as a migration message
  /// carries them: empty when no page was ever written (every version is
  /// 0). Counts one payload entry for the run plus one per version.
  std::span<const std::uint64_t> snapshot_run(PageId first,
                                              std::uint64_t count) const;
  /// Install received versions on [first, first + versions.size()) (a run
  /// from written memory).
  void apply_versions(PageId first, std::span<const std::uint64_t> versions);
  /// Install version 0 on [first, first + count) (a run from memory that
  /// was never written). Without a version array there is nothing to do.
  void apply_zero(PageId first, std::uint64_t count);

  /// True once the version array exists.
  bool has_versions() const noexcept { return versions_ != nullptr; }
  /// Allocate the version array now, so later writes and applied runs
  /// allocate nothing.
  void reserve_versions();

  /// True iff every page version matches (migration correctness check). A
  /// missing version array equals an all-zero one.
  bool content_equals(const GuestMemory& o) const;

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
  /// Payload entries `snapshot_run` copied out of this memory (exact work
  /// counter): one per run plus one per version.
  std::uint64_t payload_entries() const noexcept { return payload_entries_; }

 private:
  std::uint32_t page_size_;
  std::uint64_t page_count_;
  /// Null until the first write or applied versions; then allocated zeroed
  /// and untouched, so a guest pays only for the pages it writes.
  sim::ZeroedArray<std::uint64_t> versions_;
  core::BlockBitmap dirty_;
  bool log_enabled_ = false;
  std::uint64_t write_count_ = 0;
  std::uint64_t next_version_ = 1;
  mutable std::uint64_t payload_entries_ = 0;
};

}  // namespace vmig::vm

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "simcore/simulator.hpp"
#include "simcore/zeroed_array.hpp"
#include "storage/block.hpp"
#include "storage/disk_scheduler.hpp"

namespace vmig::storage {

/// Content identity of one block.
///
/// Real 4 KB payloads for a 40 GB disk would need 40 GB of host RAM, so the
/// disk stores a 64-bit *content token* per block instead: every write stamps
/// a globally unique token, and two disks hold identical data at a block iff
/// their tokens match. For small disks, an optional payload side-store keeps
/// the real bytes as well (token = content hash), so integrity tests can
/// verify the protocol byte-for-byte, not just token-for-token.
using ContentToken = std::uint64_t;

/// Initial token of a never-written block (all-zero content).
inline constexpr ContentToken kZeroBlockToken = 0;

/// Blocks per token page (one pre-copy chunk). Each page holds a rule —
/// all zero, or affine `token(b) = base + b` — until a write breaks it.
inline constexpr std::uint32_t kTokenPageBlocks = 256;

/// A virtual block device: token state + timed access through a
/// FIFO-contended `DiskScheduler`. This is the raw device; interception and
/// dirty tracking live in the split driver (`vm::BlkBackend`), exactly as in
/// the paper's Xen implementation.
class VirtualDisk {
 public:
  /// Standalone VBD with its own physical disk (scheduler).
  VirtualDisk(sim::Simulator& sim, Geometry geometry, DiskModelParams model = {},
              bool store_payloads = false);
  /// VBD sharing an existing physical disk: several DomUs' VBDs on one
  /// spindle contend for its time but have independent block spaces.
  VirtualDisk(sim::Simulator& sim, Geometry geometry, DiskScheduler& shared,
              bool store_payloads = false);

  VirtualDisk(const VirtualDisk&) = delete;
  VirtualDisk& operator=(const VirtualDisk&) = delete;

  const Geometry& geometry() const noexcept { return geometry_; }
  DiskScheduler& scheduler() noexcept { return *scheduler_; }
  const DiskScheduler& scheduler() const noexcept { return *scheduler_; }
  bool stores_payloads() const noexcept { return store_payloads_; }

  // ---- Timed I/O (contends on the disk with everything else) ----
  //
  // Each call changes the token state and queues the request on the disk
  // when it is made, and returns the disk's completion awaiter:
  // `co_await disk.write(r)` resumes when the write is on the platter.

  /// Timed read of a block range (no state change).
  DiskIo read(BlockRange range, IoSource source = IoSource::kGuest);

  /// Timed guest-style write: every block in the range gets a fresh token.
  DiskIo write(BlockRange range, IoSource source = IoSource::kGuest);

  /// Timed write that installs the given tokens (migration receive path).
  /// `tokens.size()` must equal `range.count`.
  DiskIo write_tokens(BlockRange range, std::span<const ContentToken> tokens,
                      IoSource source = IoSource::kMigration);

  /// Timed write of real bytes (payload mode); token = content hash.
  /// `bytes.size()` must equal `range.count * block_size`.
  DiskIo write_bytes(BlockRange range, std::span<const std::byte> bytes,
                     IoSource source = IoSource::kGuest);

  // ---- Untimed state access (bookkeeping, assertions, transfers) ----

  ContentToken token(BlockId b) const {
    const Page& p = pages_[b / kTokenPageBlocks];
    switch (p.tag) {
      case PageTag::kZero: return kZeroBlockToken;
      case PageTag::kAffine: return p.base + b;
      case PageTag::kExplicit: break;
    }
    return explicit_[b];
  }
  /// Copy `range.count` tokens out (what a migration sender transmits).
  std::vector<ContentToken> snapshot_tokens(BlockRange range) const;
  /// Directly set a token without timing (test fixture setup). Makes the
  /// block's page explicit.
  void poke_token(BlockId b, ContentToken t);
  /// Set `token(b) = base + b` for every block of `range` without timing
  /// (image prefill). Whole non-explicit pages just take the rule.
  void poke_affine(BlockRange range, ContentToken base);

  /// Payload of block b (empty span if none stored).
  std::span<const std::byte> payload(BlockId b) const;
  /// Install payload bytes untimed (paired with write_tokens on receive).
  void poke_payload(BlockId b, std::span<const std::byte> bytes);
  /// Concatenated payload bytes for a range (what a migration sender ships
  /// in payload mode); empty when payloads are not stored.
  std::vector<std::byte> snapshot_payloads(BlockRange range) const;
  /// Install concatenated payloads for a range (migration receive path).
  /// No-op when `bytes` is empty or payloads are not stored.
  void apply_payloads(BlockRange range, std::span<const std::byte> bytes);

  /// Bit j set iff block `64 * w + j` holds a different token than on
  /// `other`. `w` must address a block of both disks. Returns 0 without
  /// reading tokens when both disks hold the same rule on that page.
  std::uint64_t diff_word(const VirtualDisk& other, std::uint64_t w) const;
  /// True iff every block token matches.
  bool content_equals(const VirtualDisk& other) const;
  /// Blocks whose tokens differ from `other` (diagnostics).
  std::vector<BlockId> diff_blocks(const VirtualDisk& other) const;

  /// Number of timed guest/other/migration writes that have modified state.
  std::uint64_t write_count() const noexcept { return write_count_; }
  /// Pages that left their rule for the explicit token array (exact work
  /// counter: host memory follows it, not the disk size).
  std::uint64_t pages_materialized() const noexcept {
    return pages_materialized_;
  }

  /// Hash bytes to a content token (stable; used in payload mode).
  static ContentToken hash_bytes(std::span<const std::byte> bytes);

 private:
  enum class PageTag : std::uint8_t { kZero = 0, kAffine, kExplicit };
  /// All-zero bytes are a zero page, so the page table starts zeroed.
  struct Page {
    ContentToken base = 0;  ///< affine pages: token(b) = base + b
    PageTag tag = PageTag::kZero;
  };

  /// The part of [b, end) that lies in b's page.
  struct Segment {
    std::size_t page;
    BlockId end;  ///< exclusive
    bool whole;   ///< covers the entire page
  };

  Segment segment_at(BlockId b, BlockId end) const;
  /// Copy page `p`'s rule into the explicit array and tag it explicit.
  void materialize(std::size_t p);
  /// Install `tokens` on `range`: a whole non-explicit page that receives
  /// an exactly affine run takes the rule; any other page materializes.
  void install_tokens(BlockRange range, const ContentToken* tokens);
  /// Copy the tokens of [first, first + len) to `out`.
  void read_tokens(BlockId first, std::uint64_t len, ContentToken* out) const;

  sim::Simulator& sim_;
  Geometry geometry_;
  std::unique_ptr<DiskScheduler> owned_scheduler_;  ///< standalone mode only
  DiskScheduler* scheduler_;
  bool store_payloads_;
  /// One rule per kTokenPageBlocks blocks. Allocated zeroed and untouched,
  /// so a testbed touches only the pages it uses.
  sim::ZeroedArray<Page> pages_;
  /// Tokens of explicit pages, indexed by block. Allocated uninitialized:
  /// only entries of explicit pages are ever written or read.
  std::unique_ptr<ContentToken[]> explicit_;
  std::uint64_t pages_materialized_ = 0;
  std::unordered_map<BlockId, std::vector<std::byte>> payloads_;
  std::uint64_t write_count_ = 0;
};

}  // namespace vmig::storage

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

/// What a token page holds: a rule, or one explicit token per block.
enum class PageTag : std::uint8_t { kZero = 0, kAffine, kExplicit };

/// A block range's content tokens as a migration message carries them
/// (`VirtualDisk::snapshot_segments`): one segment per token page the range
/// touches. A rule page travels as its rule, an explicit page as a span of
/// `tokens`, so a chunk of rule pages costs O(pages) to build and install
/// however many blocks it covers.
struct TokenSegments {
  struct Segment {
    ContentToken base = 0;     ///< kAffine: token(b) = base + b
    std::uint32_t offset = 0;  ///< kExplicit: index of its first token in `tokens`
    PageTag tag = PageTag::kZero;
  };

  BlockRange range;
  /// Segment i covers the blocks of `range` in token page `first_page() + i`.
  std::vector<Segment> segments;
  /// The explicit segments' tokens, concatenated in block order.
  std::vector<ContentToken> tokens;

  std::size_t first_page() const noexcept {
    return range.start / kTokenPageBlocks;
  }
  /// Token of block `b`, which must lie in `range`.
  ContentToken token(BlockId b) const;
  /// Payload entries: one per segment plus one per explicit token.
  std::uint64_t entries() const noexcept {
    return segments.size() + tokens.size();
  }
};

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

  /// Timed write that installs `segments`' tokens on `range` (migration
  /// receive path). `range` must lie within `segments.range`: post-copy
  /// installs only the still-dirty sub-runs of a chunk.
  DiskIo write_segments(BlockRange range, const TokenSegments& segments,
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
  /// The tokens of `range` as page segments (what a migration sender
  /// transmits): a rule page is copied as its rule, an explicit page as its
  /// tokens.
  TokenSegments snapshot_segments(BlockRange range) const;
  /// Directly set a token without timing (test fixture setup). Makes the
  /// block's page explicit.
  void poke_token(BlockId b, ContentToken t);
  /// Set `token(b) = base + b` for every block of `range` without timing
  /// (image prefill). Whole non-explicit pages just take the rule.
  void poke_affine(BlockRange range, ContentToken base);

  /// Payload of block b (empty span if none stored).
  std::span<const std::byte> payload(BlockId b) const;
  /// Install payload bytes untimed (paired with write_segments on receive).
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
  /// True once a page has materialized: the explicit token array exists.
  bool has_explicit_tokens() const noexcept { return explicit_ != nullptr; }
  /// Payload entries `snapshot_segments` copied out of this disk (exact
  /// work counter): one per segment plus one per explicit token.
  std::uint64_t payload_entries() const noexcept { return payload_entries_; }

  /// Hash bytes to a content token (stable; used in payload mode).
  static ContentToken hash_bytes(std::span<const std::byte> bytes);

 private:
  /// All-zero bytes are a zero page, so the page table starts zeroed.
  struct Page {
    ContentToken base = 0;  ///< affine pages: token(b) = base + b
    PageTag tag = PageTag::kZero;
  };

  /// The part of [b, end) that lies in b's page.
  struct PageSpan {
    std::size_t page;
    BlockId end;  ///< exclusive
    bool whole;   ///< covers the entire page
  };

  PageSpan span_at(BlockId b, BlockId end) const;
  /// Copy page `p`'s rule into the explicit array and tag it explicit. The
  /// first call allocates the array.
  void materialize(std::size_t p);
  /// Install tokens on [b, span.end): the rule `rule` or, when it is
  /// explicit, the tokens at `src`. A whole non-explicit page takes a rule,
  /// or explicit tokens that form an exactly affine run, as its own rule;
  /// any other page materializes.
  void install(const PageSpan& span, BlockId b, Page rule,
               const ContentToken* src);
  /// `install`'s materializing half: write the tokens into the array.
  void write_explicit(const PageSpan& span, BlockId b, Page rule,
                      const ContentToken* src);
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
  /// Tokens of explicit pages, indexed by block. Allocated uninitialized by
  /// the first materialization, so a disk whose pages all keep their rules
  /// never has one; only entries of explicit pages are written or read.
  std::unique_ptr<ContentToken[]> explicit_;
  std::uint64_t pages_materialized_ = 0;
  mutable std::uint64_t payload_entries_ = 0;
  std::unordered_map<BlockId, std::vector<std::byte>> payloads_;
  std::uint64_t write_count_ = 0;
};

}  // namespace vmig::storage

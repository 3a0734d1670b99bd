#pragma once

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "core/dirty_bitmap.hpp"
#include "storage/block.hpp"
#include "storage/virtual_disk.hpp"
#include "vm/guest_memory.hpp"
#include "vm/types.hpp"
#include "vm/vcpu.hpp"

namespace vmig::core {

/// Wire sizes are dominated by payload; each message also pays a small
/// framing header, which is the protocol redundancy the paper's "amount of
/// migrated data" metric picks up on top of the raw state size.
inline constexpr std::uint64_t kMsgHeaderBytes = 32;

// NOTE: every message type below has user-declared constructors on purpose.
// GCC 12's coroutine ramp double-destroys an elided aggregate prvalue passed
// to a coroutine's by-value parameter (freeing buffers that were already
// moved into a channel); non-aggregate types take the safe path. The
// static_asserts in sim::Channel and net::MessageStream enforce this.

/// A run of disk blocks: pre-copy chunk, post-copy push, or pull response.
struct DiskBlocksMsg {
  storage::BlockRange range;
  /// Simulation content identity of `range`: page rules and explicit spans.
  storage::TokenSegments tokens;
  /// Real block bytes, carried when the disks run in payload mode (small
  /// byte-verifiable disks); empty in token-only mode. Wire size is the
  /// block data either way.
  std::vector<std::byte> payloads;
  std::uint32_t block_size = storage::kDefaultBlockSize;
  bool pull_response = false;
  /// A forwarded write (delta-forwarding baseline), not a bulk-copy chunk.
  bool delta = false;

  DiskBlocksMsg() = default;
  DiskBlocksMsg(storage::TokenSegments t, std::uint32_t bs, bool pulled,
                bool is_delta = false)
      : range{t.range},
        tokens{std::move(t)},
        block_size{bs},
        pull_response{pulled},
        delta{is_delta} {}

  /// Capture a range from `disk` (tokens always; bytes in payload mode).
  static DiskBlocksMsg from_disk(const storage::VirtualDisk& disk,
                                 storage::BlockRange r, bool pulled,
                                 bool is_delta = false) {
    DiskBlocksMsg m{disk.snapshot_segments(r), disk.geometry().block_size,
                    pulled, is_delta};
    m.payloads = disk.snapshot_payloads(r);
    return m;
  }
  /// Install this message's content on `disk` (untimed part: payloads).
  void apply_payloads_to(storage::VirtualDisk& disk) const {
    disk.apply_payloads(range, payloads);
  }

  std::uint64_t wire_bytes() const {
    return kMsgHeaderBytes + range.bytes(block_size);
  }
};

/// The block-bitmap shipped in the freeze-and-copy phase.
struct BlockBitmapMsg {
  DirtyBitmap bitmap;

  BlockBitmapMsg() = default;
  explicit BlockBitmapMsg(DirtyBitmap bm) : bitmap{std::move(bm)} {}

  std::uint64_t wire_bytes() const { return kMsgHeaderBytes + bitmap.wire_bytes(); }
};

/// A chunk of memory pages from memory pre-copy or the freeze-phase
/// residual: runs of page ids plus one span of their versions. Memory that
/// was never written sends its runs without versions.
struct MemPagesMsg {
  std::vector<SetRun> runs;  ///< ascending, disjoint page runs
  /// The runs' versions, concatenated; empty when the sender's memory was
  /// never written (every version is 0).
  std::vector<std::uint64_t> versions;
  std::uint64_t pages = 0;  ///< pages in `runs`
  std::uint32_t page_size = 4096;

  MemPagesMsg() = default;
  /// An empty chunk of `mem`'s pages with room for `max_pages` pages, so
  /// filling it allocates nothing.
  MemPagesMsg(const vm::GuestMemory& mem, std::uint64_t max_pages)
      : page_size{mem.page_size()} {
    runs.reserve(max_pages);
    if (mem.has_versions()) versions.reserve(max_pages);
  }

  /// Append the runs of pages set in `bm` at or after `from` until the
  /// chunk holds `max_pages` pages, reading their versions now. Returns
  /// where the next chunk's scan starts.
  template <typename BM>
  std::uint64_t fill(const vm::GuestMemory& mem, const BM& bm,
                     std::uint64_t from, std::uint64_t max_pages) {
    while (pages < max_pages) {
      const auto run =
          wordops::next_set_run(bm, from, bm.size(), max_pages - pages);
      if (!run.has_value()) break;
      runs.push_back(*run);
      const auto v = mem.snapshot_run(run->start, run->len);
      versions.insert(versions.end(), v.begin(), v.end());
      pages += run->len;
      from = run->start + run->len;
    }
    return from;
  }

  /// Install every run's versions on `mem` (the receive path).
  void apply_to(vm::GuestMemory& mem) const {
    const std::uint64_t* v = versions.data();
    for (const SetRun& r : runs) {
      if (versions.empty()) {
        mem.apply_zero(r.start, r.len);
      } else {
        mem.apply_versions(r.start, {v, r.len});
        v += r.len;
      }
    }
  }

  std::uint64_t wire_bytes() const {
    // Page payload plus an 8-byte page-frame header each.
    return kMsgHeaderBytes + pages * (page_size + 8ull);
  }
};

/// vCPU context, shipped while the guest is frozen.
struct CpuStateMsg {
  vm::VCpuState cpu;

  CpuStateMsg() = default;
  explicit CpuStateMsg(vm::VCpuState c) : cpu{c} {}

  std::uint64_t wire_bytes() const { return kMsgHeaderBytes + cpu.wire_bytes(); }
};

/// Destination -> source: fetch one block needed by a blocked guest read.
struct PullRequestMsg {
  storage::BlockId block = 0;

  PullRequestMsg() = default;
  explicit PullRequestMsg(storage::BlockId b) : block{b} {}

  std::uint64_t wire_bytes() const { return kMsgHeaderBytes; }
};

/// Control-plane coordination between the migration daemons.
enum class Control : std::uint8_t {
  kPrepareVbd,       ///< source -> dest: allocate a VBD for the incoming VM
  kVbdReady,         ///< dest -> source: VBD allocated
  kIterationEnd,     ///< source -> dest: pre-copy iteration boundary
  kIterationAck,     ///< dest -> source: all iteration data applied to disk
  kEnterPostCopy,    ///< source -> dest: resume the VM; post-copy begins
  kPushComplete,     ///< source -> dest: every dirty block has been pushed
  kSyncComplete,     ///< dest -> source: bitmaps drained; source may shut down
};

struct ControlMsg {
  Control kind = Control::kPrepareVbd;
  std::uint64_t arg = 0;

  ControlMsg() = default;
  explicit ControlMsg(Control k, std::uint64_t a = 0) : kind{k}, arg{a} {}

  std::uint64_t wire_bytes() const { return kMsgHeaderBytes; }
};

/// Any message on a migration stream.
struct MigrationMessage {
  using Payload = std::variant<DiskBlocksMsg, BlockBitmapMsg, MemPagesMsg,
                               CpuStateMsg, PullRequestMsg, ControlMsg>;

  Payload payload;

  MigrationMessage() = default;
  template <typename T>
  MigrationMessage(T&& p) : payload{std::forward<T>(p)} {}  // NOLINT(google-explicit-constructor)

  std::uint64_t wire_bytes() const {
    return std::visit([](const auto& m) { return m.wire_bytes(); }, payload);
  }

  template <typename T>
  const T* get_if() const {
    return std::get_if<T>(&payload);
  }
  template <typename T>
  T* get_if() {
    return std::get_if<T>(&payload);
  }
  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(payload);
  }
};

}  // namespace vmig::core

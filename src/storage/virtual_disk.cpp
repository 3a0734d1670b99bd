#include "storage/virtual_disk.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "simcore/rng.hpp"

namespace vmig::storage {

namespace {
/// Process-wide monotone token source. The simulation is single-threaded and
/// deterministic, so a plain counter keeps tokens unique across all disks —
/// including a block written at the destination after migration, which must
/// never collide with any token the source ever produced.
ContentToken g_next_token = 1;
}  // namespace

VirtualDisk::VirtualDisk(sim::Simulator& sim, Geometry geometry,
                         DiskModelParams model, bool store_payloads)
    : sim_{sim},
      geometry_{geometry},
      owned_scheduler_{std::make_unique<DiskScheduler>(sim, DiskModel{model})},
      scheduler_{owned_scheduler_.get()},
      store_payloads_{store_payloads},
      pages_{sim::make_zeroed_array<Page>(
          (geometry.block_count + kTokenPageBlocks - 1) / kTokenPageBlocks)},
      explicit_{std::make_unique_for_overwrite<ContentToken[]>(
          geometry.block_count)} {}

VirtualDisk::VirtualDisk(sim::Simulator& sim, Geometry geometry,
                         DiskScheduler& shared, bool store_payloads)
    : sim_{sim},
      geometry_{geometry},
      scheduler_{&shared},
      store_payloads_{store_payloads},
      pages_{sim::make_zeroed_array<Page>(
          (geometry.block_count + kTokenPageBlocks - 1) / kTokenPageBlocks)},
      explicit_{std::make_unique_for_overwrite<ContentToken[]>(
          geometry.block_count)} {}

void VirtualDisk::materialize(std::size_t p) {
  if (pages_[p].tag == PageTag::kExplicit) return;
  const BlockId first = p * kTokenPageBlocks;
  const BlockId last =
      std::min<BlockId>(first + kTokenPageBlocks, geometry_.block_count);
  read_tokens(first, last - first, explicit_.get() + first);
  pages_[p].tag = PageTag::kExplicit;
  ++pages_materialized_;
}

void VirtualDisk::poke_token(BlockId b, ContentToken t) {
  assert(b < geometry_.block_count);
  materialize(b / kTokenPageBlocks);
  explicit_[b] = t;
}

VirtualDisk::Segment VirtualDisk::segment_at(BlockId b, BlockId end) const {
  const std::size_t p = b / kTokenPageBlocks;
  const BlockId page_first = p * kTokenPageBlocks;
  const BlockId page_end =
      std::min<BlockId>(page_first + kTokenPageBlocks, geometry_.block_count);
  const BlockId seg_end = std::min(end, page_end);
  return {p, seg_end, b == page_first && seg_end == page_end};
}

void VirtualDisk::poke_affine(BlockRange range, ContentToken base) {
  assert(range.end() <= geometry_.block_count);
  for (BlockId b = range.start; b < range.end();) {
    const Segment seg = segment_at(b, range.end());
    Page& page = pages_[seg.page];
    if (seg.whole && page.tag != PageTag::kExplicit) {
      page = {base, PageTag::kAffine};
    } else {
      materialize(seg.page);
      for (BlockId i = b; i < seg.end; ++i) explicit_[i] = base + i;
    }
    b = seg.end;
  }
}

void VirtualDisk::install_tokens(BlockRange range, const ContentToken* tokens) {
  for (BlockId b = range.start; b < range.end();) {
    const Segment seg = segment_at(b, range.end());
    const ContentToken* src = tokens + (b - range.start);
    Page& page = pages_[seg.page];
    bool affine = seg.whole && page.tag != PageTag::kExplicit;
    for (BlockId i = 1; affine && i < seg.end - b; ++i) {
      affine = src[i] == src[0] + i;
    }
    if (affine) {
      page = {src[0] - b, PageTag::kAffine};
    } else {
      materialize(seg.page);
      std::copy(src, src + (seg.end - b), explicit_.get() + b);
    }
    b = seg.end;
  }
}

void VirtualDisk::read_tokens(BlockId first, std::uint64_t len,
                              ContentToken* out) const {
  for (BlockId b = first; b < first + len;) {
    const Segment seg = segment_at(b, first + len);
    const Page& page = pages_[seg.page];
    ContentToken* dst = out + (b - first);
    switch (page.tag) {
      case PageTag::kZero:
        std::fill(dst, dst + (seg.end - b), kZeroBlockToken);
        break;
      case PageTag::kAffine:
        for (BlockId i = b; i < seg.end; ++i) *dst++ = page.base + i;
        break;
      case PageTag::kExplicit:
        std::copy(explicit_.get() + b, explicit_.get() + seg.end, dst);
        break;
    }
    b = seg.end;
  }
}

DiskIo VirtualDisk::read(BlockRange range, IoSource source) {
  assert(range.end() <= geometry_.block_count);
  return scheduler_->execute(IoOp::kRead, range, geometry_.block_size, source);
}

DiskIo VirtualDisk::write(BlockRange range, IoSource source) {
  assert(range.end() <= geometry_.block_count);
  // Fresh tokens in block order are an affine run.
  const ContentToken first = g_next_token;
  g_next_token += range.count;
  poke_affine(range, first - range.start);
  for (BlockId b = range.start; store_payloads_ && b < range.end(); ++b) {
    // Synthesize distinguishable content from the token.
    std::vector<std::byte> data(geometry_.block_size);
    std::uint64_t s = first + (b - range.start);
    for (std::size_t i = 0; i + 8 <= data.size(); i += 8) {
      const std::uint64_t v = sim::splitmix64(s);
      std::memcpy(data.data() + i, &v, 8);
    }
    payloads_[b] = std::move(data);
  }
  ++write_count_;
  return scheduler_->execute(IoOp::kWrite, range, geometry_.block_size, source);
}

DiskIo VirtualDisk::write_tokens(BlockRange range,
                                 std::span<const ContentToken> tokens,
                                 IoSource source) {
  assert(range.end() <= geometry_.block_count);
  assert(tokens.size() == range.count);
  install_tokens(range, tokens.data());
  ++write_count_;
  return scheduler_->execute(IoOp::kWrite, range, geometry_.block_size, source);
}

DiskIo VirtualDisk::write_bytes(BlockRange range,
                                std::span<const std::byte> bytes,
                                IoSource source) {
  assert(range.end() <= geometry_.block_count);
  assert(bytes.size() == static_cast<std::size_t>(range.count) * geometry_.block_size);
  for (std::uint32_t i = 0; i < range.count; ++i) {
    const auto chunk = bytes.subspan(
        static_cast<std::size_t>(i) * geometry_.block_size, geometry_.block_size);
    poke_token(range.start + i, hash_bytes(chunk));
    if (store_payloads_) {
      payloads_[range.start + i].assign(chunk.begin(), chunk.end());
    }
  }
  ++write_count_;
  return scheduler_->execute(IoOp::kWrite, range, geometry_.block_size, source);
}

std::vector<ContentToken> VirtualDisk::snapshot_tokens(BlockRange range) const {
  assert(range.end() <= geometry_.block_count);
  std::vector<ContentToken> out(range.count);
  read_tokens(range.start, range.count, out.data());
  return out;
}

std::span<const std::byte> VirtualDisk::payload(BlockId b) const {
  const auto it = payloads_.find(b);
  if (it == payloads_.end()) return {};
  return it->second;
}

void VirtualDisk::poke_payload(BlockId b, std::span<const std::byte> bytes) {
  payloads_[b].assign(bytes.begin(), bytes.end());
}

std::vector<std::byte> VirtualDisk::snapshot_payloads(BlockRange range) const {
  if (!store_payloads_) return {};
  std::vector<std::byte> out;
  out.resize(static_cast<std::size_t>(range.count) * geometry_.block_size);
  for (std::uint32_t i = 0; i < range.count; ++i) {
    const auto p = payload(range.start + i);
    if (!p.empty()) {
      std::memcpy(out.data() + static_cast<std::size_t>(i) * geometry_.block_size,
                  p.data(), std::min<std::size_t>(p.size(), geometry_.block_size));
    }
  }
  return out;
}

void VirtualDisk::apply_payloads(BlockRange range,
                                 std::span<const std::byte> bytes) {
  if (!store_payloads_ || bytes.empty()) return;
  assert(bytes.size() >=
         static_cast<std::size_t>(range.count) * geometry_.block_size);
  for (std::uint32_t i = 0; i < range.count; ++i) {
    poke_payload(range.start + i,
                 bytes.subspan(static_cast<std::size_t>(i) * geometry_.block_size,
                               geometry_.block_size));
  }
}

std::uint64_t VirtualDisk::diff_word(const VirtualDisk& other,
                                     std::uint64_t w) const {
  const BlockId first = w * 64;
  const std::uint64_t n =
      std::min(geometry_.block_count, other.geometry_.block_count);
  assert(first < n);
  const Page& a = pages_[first / kTokenPageBlocks];
  const Page& b = other.pages_[first / kTokenPageBlocks];
  if (a.tag != PageTag::kExplicit && a.tag == b.tag && a.base == b.base) return 0;
  const std::uint64_t len = std::min<std::uint64_t>(64, n - first);
  ContentToken x[64];
  ContentToken y[64];
  read_tokens(first, len, x);
  other.read_tokens(first, len, y);
  std::uint64_t differs = 0;
  for (std::uint64_t j = 0; j < len; ++j) {
    differs |= std::uint64_t{x[j] != y[j]} << j;
  }
  return differs;
}

bool VirtualDisk::content_equals(const VirtualDisk& other) const {
  const std::uint64_t n = geometry_.block_count;
  if (other.geometry_.block_count != n) return false;
  for (std::uint64_t w = 0; w * 64 < n; ++w) {
    if (diff_word(other, w) != 0) return false;
  }
  return true;
}

std::vector<BlockId> VirtualDisk::diff_blocks(const VirtualDisk& other) const {
  std::vector<BlockId> out;
  const std::uint64_t n =
      std::min(geometry_.block_count, other.geometry_.block_count);
  for (BlockId b = 0; b < n; ++b) {
    if (token(b) != other.token(b)) out.push_back(b);
  }
  const std::uint64_t most =
      std::max(geometry_.block_count, other.geometry_.block_count);
  for (BlockId b = n; b < most; ++b) out.push_back(b);
  return out;
}

ContentToken VirtualDisk::hash_bytes(std::span<const std::byte> bytes) {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  // Avoid colliding with the zero-block sentinel.
  return h == kZeroBlockToken ? 1 : h;
}

}  // namespace vmig::storage

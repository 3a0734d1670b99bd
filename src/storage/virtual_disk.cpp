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
          (geometry.block_count + kTokenPageBlocks - 1) / kTokenPageBlocks)} {}

VirtualDisk::VirtualDisk(sim::Simulator& sim, Geometry geometry,
                         DiskScheduler& shared, bool store_payloads)
    : sim_{sim},
      geometry_{geometry},
      scheduler_{&shared},
      store_payloads_{store_payloads},
      pages_{sim::make_zeroed_array<Page>(
          (geometry.block_count + kTokenPageBlocks - 1) / kTokenPageBlocks)} {}

ContentToken TokenSegments::token(BlockId b) const {
  assert(b >= range.start && b < range.end());
  const std::size_t p = b / kTokenPageBlocks;
  const Segment& seg = segments[p - first_page()];
  switch (seg.tag) {
    case PageTag::kZero: return kZeroBlockToken;
    case PageTag::kAffine: return seg.base + b;
    case PageTag::kExplicit: break;
  }
  const BlockId seg_first = std::max<BlockId>(range.start, p * kTokenPageBlocks);
  return tokens[seg.offset + (b - seg_first)];
}

void VirtualDisk::materialize(std::size_t p) {
  if (pages_[p].tag == PageTag::kExplicit) return;
  if (!explicit_) {
    explicit_ =
        std::make_unique_for_overwrite<ContentToken[]>(geometry_.block_count);
  }
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

VirtualDisk::PageSpan VirtualDisk::span_at(BlockId b, BlockId end) const {
  const std::size_t p = b / kTokenPageBlocks;
  const BlockId page_first = p * kTokenPageBlocks;
  const BlockId page_end =
      std::min<BlockId>(page_first + kTokenPageBlocks, geometry_.block_count);
  const BlockId span_end = std::min(end, page_end);
  return {p, span_end, b == page_first && span_end == page_end};
}

void VirtualDisk::poke_affine(BlockRange range, ContentToken base) {
  assert(range.end() <= geometry_.block_count);
  for (BlockId b = range.start; b < range.end();) {
    const PageSpan span = span_at(b, range.end());
    install(span, b, {base, PageTag::kAffine}, nullptr);
    b = span.end;
  }
}

void VirtualDisk::install(const PageSpan& span, BlockId b, Page rule,
                          const ContentToken* src) {
  Page& page = pages_[span.page];
  if (span.whole && page.tag != PageTag::kExplicit) {
    if (rule.tag != PageTag::kExplicit) {
      page.base = rule.base;
      page.tag = rule.tag;
      return;
    }
    // An explicit source page can hold an exactly affine run.
    bool affine = true;
    for (BlockId i = 1; affine && i < span.end - b; ++i) {
      affine = src[i] == src[0] + i;
    }
    if (affine) {
      page = {src[0] - b, PageTag::kAffine};
      return;
    }
  }
  write_explicit(span, b, rule, src);
}

void VirtualDisk::write_explicit(const PageSpan& span, BlockId b, Page rule,
                                 const ContentToken* src) {
  materialize(span.page);
  const BlockId len = span.end - b;
  ContentToken* dst = explicit_.get() + b;
  switch (rule.tag) {
    case PageTag::kZero:
      std::fill(dst, dst + len, kZeroBlockToken);
      break;
    case PageTag::kAffine:
      for (BlockId i = 0; i < len; ++i) dst[i] = rule.base + b + i;
      break;
    case PageTag::kExplicit:
      std::copy(src, src + len, dst);
      break;
  }
}

void VirtualDisk::read_tokens(BlockId first, std::uint64_t len,
                              ContentToken* out) const {
  for (BlockId b = first; b < first + len;) {
    const PageSpan span = span_at(b, first + len);
    const Page& page = pages_[span.page];
    ContentToken* dst = out + (b - first);
    switch (page.tag) {
      case PageTag::kZero:
        std::fill(dst, dst + (span.end - b), kZeroBlockToken);
        break;
      case PageTag::kAffine:
        for (BlockId i = b; i < span.end; ++i) *dst++ = page.base + i;
        break;
      case PageTag::kExplicit:
        std::copy(explicit_.get() + b, explicit_.get() + span.end, dst);
        break;
    }
    b = span.end;
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

DiskIo VirtualDisk::write_segments(BlockRange range,
                                   const TokenSegments& segments,
                                   IoSource source) {
  assert(range.end() <= geometry_.block_count);
  assert(range.start >= segments.range.start &&
         range.end() <= segments.range.end());
  for (BlockId b = range.start; b < range.end();) {
    const PageSpan span = span_at(b, range.end());
    const TokenSegments::Segment& seg =
        segments.segments[span.page - segments.first_page()];
    const ContentToken* src = nullptr;
    if (seg.tag == PageTag::kExplicit) {
      // The span starts at the snapshot's first block on its first page.
      const BlockId seg_first = std::max<BlockId>(
          segments.range.start, span.page * kTokenPageBlocks);
      src = segments.tokens.data() + seg.offset + (b - seg_first);
    }
    install(span, b, {seg.base, seg.tag}, src);
    b = span.end;
  }
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

TokenSegments VirtualDisk::snapshot_segments(BlockRange range) const {
  assert(range.end() <= geometry_.block_count);
  TokenSegments out;
  out.range = range;
  if (range.count == 0) return out;
  out.segments.reserve((range.end() - 1) / kTokenPageBlocks -
                       range.start / kTokenPageBlocks + 1);
  std::uint32_t explicit_blocks = 0;
  for (BlockId b = range.start; b < range.end();) {
    const PageSpan span = span_at(b, range.end());
    const Page& page = pages_[span.page];
    TokenSegments::Segment& seg = out.segments.emplace_back();
    seg.tag = page.tag;
    if (page.tag == PageTag::kAffine) seg.base = page.base;
    if (page.tag == PageTag::kExplicit) {
      seg.offset = explicit_blocks;
      explicit_blocks += static_cast<std::uint32_t>(span.end - b);
    }
    b = span.end;
  }
  if (explicit_blocks > 0) {
    out.tokens.reserve(explicit_blocks);
    for (BlockId b = range.start; b < range.end();) {
      const PageSpan span = span_at(b, range.end());
      if (pages_[span.page].tag == PageTag::kExplicit) {
        out.tokens.insert(out.tokens.end(), explicit_.get() + b,
                          explicit_.get() + span.end);
      }
      b = span.end;
    }
  }
  payload_entries_ += out.entries();
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

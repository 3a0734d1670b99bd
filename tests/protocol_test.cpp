// Wire-protocol unit tests: message sizes (what the paper's "amount of
// migrated data" is made of), variant dispatch, and disk capture helpers.

#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "simcore/rng.hpp"

namespace vmig::core {
namespace {

using storage::BlockRange;
using storage::Geometry;

TEST(ProtocolTest, DiskBlocksWireIsBlockData) {
  sim::Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(256)};
  disk.poke_affine({0, 256}, 0x100);
  // A rule page ships one segment, yet the wire carries every block.
  DiskBlocksMsg m = DiskBlocksMsg::from_disk(disk, BlockRange{0, 256}, false);
  EXPECT_EQ(m.tokens.entries(), 1u);
  EXPECT_EQ(m.wire_bytes(), kMsgHeaderBytes + 256ull * 4096ull);
  storage::VirtualDisk sectors{sim, Geometry::from_blocks(8, 512)};
  DiskBlocksMsg sector = DiskBlocksMsg::from_disk(sectors, BlockRange{0, 8}, false);
  EXPECT_EQ(sector.wire_bytes(), kMsgHeaderBytes + 8ull * 512ull);
}

TEST(ProtocolTest, MemPagesWireIncludesFrameHeaders) {
  vm::GuestMemory mem{1};
  mem.write_page(3);
  BlockBitmap pages{mem.page_count()};
  pages.set_range(0, 4);
  pages.set_range(20, 6);
  MemPagesMsg m{mem, 10};
  m.fill(mem, pages, 0, 10);
  EXPECT_EQ(m.pages, 10u);
  EXPECT_EQ(m.runs.size(), 2u);
  EXPECT_EQ(m.versions.size(), 10u);
  EXPECT_EQ(m.page_size, 4096u);
  EXPECT_EQ(m.wire_bytes(), kMsgHeaderBytes + 10ull * (4096 + 8));
  // Never-written memory ships no versions, at the same wire size.
  vm::GuestMemory idle{1};
  MemPagesMsg z{idle, 10};
  z.fill(idle, pages, 0, 10);
  EXPECT_TRUE(z.versions.empty());
  EXPECT_EQ(z.wire_bytes(), m.wire_bytes());
}

// Memory chunks of page runs against a dense reference: random bitmaps and
// chunk sizes, from written and never-written memory onto shadows with and
// without a version array.
TEST(ProtocolTest, MemPagesRoundTripMatchesDenseReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    vm::GuestMemory src{1};
    vm::GuestMemory dst{1};
    const std::uint64_t n = src.page_count();
    const auto scribble = [&](vm::GuestMemory& m) {
      if (rng.uniform_u64(3) == 0) return;  // never written
      for (int i = 0; i < 80; ++i) m.write_page(rng.uniform_u64(n));
    };
    scribble(src);
    scribble(dst);
    const bool dst_had_versions = dst.has_versions();

    BlockBitmap pages{n};
    const std::uint64_t density = rng.uniform_u64(5);  // 0..4 quarters
    for (std::uint64_t p = 0; p < n; ++p) {
      if (rng.uniform_u64(4) < density) pages.set(p);
    }
    std::vector<std::uint64_t> ref(n);
    for (std::uint64_t p = 0; p < n; ++p) {
      ref[p] = pages.test(p) ? src.version(p) : dst.version(p);
    }

    const std::uint64_t chunk = 1 + rng.uniform_u64(rng.uniform_u64(2) == 0 ? 8 : 300);
    const std::uint64_t entries0 = src.payload_entries();
    std::uint64_t entries = 0;
    BlockBitmap seen{n};
    std::uint64_t left = pages.count_set();
    std::uint64_t pos = 0;
    while (left > 0) {
      const std::uint64_t want = std::min(chunk, left);
      MemPagesMsg m{src, want};
      pos = m.fill(src, pages, pos, want);
      ASSERT_EQ(m.pages, want);
      ASSERT_EQ(m.versions.size(), src.has_versions() ? want : 0u);
      std::uint64_t sum = 0;
      std::uint64_t prev_end = 0;
      for (const SetRun& r : m.runs) {
        ASSERT_GT(r.len, 0u);
        ASSERT_GE(r.start, prev_end);
        for (std::uint64_t p = r.start; p < r.start + r.len; ++p) {
          ASSERT_TRUE(pages.test(p)) << "page " << p;
          ASSERT_FALSE(seen.test(p)) << "page " << p << " sent twice";
          seen.set(p);
        }
        sum += r.len;
        prev_end = r.start + r.len;
      }
      ASSERT_EQ(sum, want);
      EXPECT_EQ(m.wire_bytes(), kMsgHeaderBytes + want * (4096 + 8));
      entries += m.runs.size() + m.versions.size();
      m.apply_to(dst);
      left -= want;
    }
    EXPECT_EQ(seen, pages);
    EXPECT_EQ(src.payload_entries() - entries0, entries);
    for (std::uint64_t p = 0; p < n; ++p) {
      ASSERT_EQ(dst.version(p), ref[p]) << "page " << p;
    }
    EXPECT_EQ(dst.has_versions(),
              dst_had_versions || (src.has_versions() && pages.any()));
    if (pages.count_set() == n) {
      EXPECT_TRUE(dst.content_equals(src));
    }
  }
}

TEST(ProtocolTest, BitmapWireTracksBitmapKind) {
  BlockBitmapMsg flat{DirtyBitmap{BitmapKind::kFlat, 1ull << 20}};
  BlockBitmapMsg layered{DirtyBitmap{BitmapKind::kLayered, 1ull << 20}};
  EXPECT_EQ(flat.wire_bytes(), kMsgHeaderBytes + (1ull << 20) / 8);
  EXPECT_LT(layered.wire_bytes(), flat.wire_bytes());  // all-clean: upper only
}

TEST(ProtocolTest, SmallMessagesAreHeaderSized) {
  EXPECT_EQ(PullRequestMsg{42}.wire_bytes(), kMsgHeaderBytes);
  EXPECT_EQ(ControlMsg{Control::kVbdReady}.wire_bytes(), kMsgHeaderBytes);
  EXPECT_EQ(CpuStateMsg{vm::VCpuState{}}.wire_bytes(),
            kMsgHeaderBytes + vm::VCpuState::kWireBytes);
}

TEST(ProtocolTest, VariantDispatch) {
  MigrationMessage m{PullRequestMsg{7}};
  EXPECT_TRUE(m.is<PullRequestMsg>());
  EXPECT_FALSE(m.is<ControlMsg>());
  ASSERT_NE(m.get_if<PullRequestMsg>(), nullptr);
  EXPECT_EQ(m.get_if<PullRequestMsg>()->block, 7u);
  EXPECT_EQ(m.get_if<DiskBlocksMsg>(), nullptr);
  EXPECT_EQ(m.wire_bytes(), kMsgHeaderBytes);
}

TEST(ProtocolTest, FromDiskCapturesTokens) {
  sim::Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(64)};
  disk.poke_token(10, 111);
  disk.poke_token(11, 222);
  const auto m = DiskBlocksMsg::from_disk(disk, BlockRange{10, 2}, false);
  ASSERT_EQ(m.tokens.tokens.size(), 2u);  // one explicit span
  EXPECT_EQ(m.tokens.token(10), 111u);
  EXPECT_EQ(m.tokens.token(11), 222u);
  EXPECT_TRUE(m.payloads.empty());  // token-only disk
  EXPECT_FALSE(m.pull_response);
  EXPECT_FALSE(m.delta);
}

TEST(ProtocolTest, FromDiskCapturesPayloadsInPayloadMode) {
  sim::Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(8, 512), {}, true};
  std::vector<std::byte> data(512, std::byte{0x5a});
  disk.poke_payload(3, data);
  disk.poke_token(3, storage::VirtualDisk::hash_bytes(data));
  const auto m = DiskBlocksMsg::from_disk(disk, BlockRange{3, 1}, true);
  ASSERT_EQ(m.payloads.size(), 512u);
  EXPECT_EQ(m.payloads[0], std::byte{0x5a});
  EXPECT_TRUE(m.pull_response);

  // Round-trip onto another payload disk.
  storage::VirtualDisk dst{sim, Geometry::from_blocks(8, 512), {}, true};
  m.apply_payloads_to(dst);
  ASSERT_EQ(dst.payload(3).size(), 512u);
  EXPECT_EQ(dst.payload(3)[511], std::byte{0x5a});
}

TEST(ProtocolTest, ApplyPayloadsIsNoopForTokenOnlyDisks) {
  sim::Simulator sim;
  storage::VirtualDisk src{sim, Geometry::from_blocks(8, 512), {}, true};
  storage::VirtualDisk dst{sim, Geometry::from_blocks(8, 512)};  // token-only
  std::vector<std::byte> data(512, std::byte{1});
  src.poke_payload(0, data);
  const auto m = DiskBlocksMsg::from_disk(src, BlockRange{0, 1}, false);
  m.apply_payloads_to(dst);  // must not crash or store
  EXPECT_TRUE(dst.payload(0).empty());
}

TEST(ProtocolTest, DeltaFlagSurvivesConstruction) {
  sim::Simulator sim;
  storage::VirtualDisk disk{sim, Geometry::from_blocks(8)};
  disk.poke_token(0, 1);
  DiskBlocksMsg d =
      DiskBlocksMsg::from_disk(disk, BlockRange{0, 1}, false, /*is_delta=*/true);
  EXPECT_TRUE(d.delta);
  MigrationMessage m{std::move(d)};
  EXPECT_TRUE(m.get_if<DiskBlocksMsg>()->delta);
  EXPECT_EQ(m.get_if<DiskBlocksMsg>()->tokens.token(0), 1u);
}

}  // namespace
}  // namespace vmig::core

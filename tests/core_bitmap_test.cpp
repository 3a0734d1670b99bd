#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <vector>

#include "core/block_bitmap.hpp"
#include "core/dirty_bitmap.hpp"
#include "core/layered_bitmap.hpp"
#include "core/three_level_bitmap.hpp"
#include "simcore/rng.hpp"

namespace vmig::core {
namespace {

TEST(BlockBitmapTest, StartsClean) {
  BlockBitmap bm{1000};
  EXPECT_EQ(bm.size(), 1000u);
  EXPECT_EQ(bm.count_set(), 0u);
  EXPECT_TRUE(bm.none());
  for (std::uint64_t i = 0; i < 1000; i += 97) EXPECT_FALSE(bm.test(i));
}

TEST(BlockBitmapTest, InitiallySet) {
  BlockBitmap bm{1000, /*initially_set=*/true};
  EXPECT_EQ(bm.count_set(), 1000u);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(999));
}

TEST(BlockBitmapTest, SetClearTest) {
  BlockBitmap bm{128};
  bm.set(5);
  bm.set(64);
  bm.set(127);
  EXPECT_TRUE(bm.test(5));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(127));
  EXPECT_FALSE(bm.test(6));
  EXPECT_EQ(bm.count_set(), 3u);
  bm.clear(64);
  EXPECT_FALSE(bm.test(64));
  EXPECT_EQ(bm.count_set(), 2u);
}

TEST(BlockBitmapTest, DoubleSetCountsOnce) {
  BlockBitmap bm{64};
  bm.set(3);
  bm.set(3);
  EXPECT_EQ(bm.count_set(), 1u);
  bm.clear(3);
  bm.clear(3);
  EXPECT_EQ(bm.count_set(), 0u);
}

TEST(BlockBitmapTest, SetRangeCrossesWords) {
  BlockBitmap bm{512};
  bm.set_range(60, 200);  // spans word boundaries
  EXPECT_EQ(bm.count_set(), 200u);
  EXPECT_FALSE(bm.test(59));
  EXPECT_TRUE(bm.test(60));
  EXPECT_TRUE(bm.test(259));
  EXPECT_FALSE(bm.test(260));
}

TEST(BlockBitmapTest, SetRangeOverlapCountsOnce) {
  BlockBitmap bm{256};
  bm.set_range(0, 100);
  bm.set_range(50, 100);
  EXPECT_EQ(bm.count_set(), 150u);
}

TEST(BlockBitmapTest, ClearRange) {
  BlockBitmap bm{512, true};
  bm.clear_range(100, 300);
  EXPECT_EQ(bm.count_set(), 212u);
  EXPECT_TRUE(bm.test(99));
  EXPECT_FALSE(bm.test(100));
  EXPECT_FALSE(bm.test(399));
  EXPECT_TRUE(bm.test(400));
}

TEST(BlockBitmapTest, FillRespectsTailBits) {
  BlockBitmap bm{70};  // not a multiple of 64
  bm.fill(true);
  EXPECT_EQ(bm.count_set(), 70u);
  std::uint64_t seen = 0;
  bm.for_each_set([&](std::uint64_t i) {
    EXPECT_LT(i, 70u);
    ++seen;
  });
  EXPECT_EQ(seen, 70u);
}

TEST(BlockBitmapTest, NextSet) {
  BlockBitmap bm{300};
  bm.set(10);
  bm.set(100);
  bm.set(299);
  EXPECT_EQ(bm.next_set(0), std::optional<std::uint64_t>{10});
  EXPECT_EQ(bm.next_set(10), std::optional<std::uint64_t>{10});
  EXPECT_EQ(bm.next_set(11), std::optional<std::uint64_t>{100});
  EXPECT_EQ(bm.next_set(101), std::optional<std::uint64_t>{299});
  EXPECT_EQ(bm.next_set(300), std::nullopt);
  bm.clear(299);
  EXPECT_EQ(bm.next_set(101), std::nullopt);
}

TEST(BlockBitmapTest, RunLength) {
  BlockBitmap bm{200};
  bm.set_range(50, 80);
  EXPECT_EQ(bm.run_length(50, 1000), 80u);
  EXPECT_EQ(bm.run_length(50, 10), 10u);
  EXPECT_EQ(bm.run_length(129, 10), 1u);
}

TEST(BlockBitmapTest, ForEachSetAscending) {
  BlockBitmap bm{1000};
  const std::vector<std::uint64_t> want{0, 63, 64, 65, 500, 999};
  for (auto i : want) bm.set(i);
  std::vector<std::uint64_t> got;
  bm.for_each_set([&](std::uint64_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BlockBitmapTest, OrAndWith) {
  BlockBitmap a{128}, b{128};
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  BlockBitmap u = a;
  u.or_with(b);
  EXPECT_EQ(u.count_set(), 3u);
  EXPECT_TRUE(u.test(1));
  EXPECT_TRUE(u.test(3));
  BlockBitmap n = a;
  n.and_with(b);
  EXPECT_EQ(n.count_set(), 1u);
  EXPECT_TRUE(n.test(2));
}

TEST(BlockBitmapTest, PaperMemoryCostNumbers) {
  // §IV-A-2: 32 GB disk at 4 KB blocks => 1 MB bitmap; at 512 B => 8 MB.
  const std::uint64_t blocks_4k = 32ull * 1024 * 1024 * 1024 / 4096;
  const std::uint64_t sectors = 32ull * 1024 * 1024 * 1024 / 512;
  EXPECT_EQ(BlockBitmap{blocks_4k}.wire_bytes(), 1024u * 1024u);
  EXPECT_EQ(BlockBitmap{sectors}.wire_bytes(), 8u * 1024u * 1024u);
}

TEST(LayeredBitmapTest, BasicSetTestClear) {
  LayeredBitmap bm{100000};
  EXPECT_FALSE(bm.test(54321));
  bm.set(54321);
  EXPECT_TRUE(bm.test(54321));
  EXPECT_EQ(bm.count_set(), 1u);
  bm.clear(54321);
  EXPECT_FALSE(bm.test(54321));
  EXPECT_EQ(bm.count_set(), 0u);
}

TEST(LayeredBitmapTest, LazyAllocation) {
  LayeredBitmap bm{1ull << 20, 1ull << 10};  // 1024 parts
  EXPECT_EQ(bm.allocated_parts(), 0u);
  bm.set(5);
  EXPECT_EQ(bm.allocated_parts(), 1u);
  bm.set(6);
  EXPECT_EQ(bm.allocated_parts(), 1u);  // same part
  bm.set((1ull << 20) - 1);
  EXPECT_EQ(bm.allocated_parts(), 2u);
  EXPECT_EQ(bm.dirty_parts(), 2u);
}

TEST(LayeredBitmapTest, ClearOnUnallocatedPartIsNoop) {
  LayeredBitmap bm{10000};
  bm.clear(5000);
  EXPECT_EQ(bm.count_set(), 0u);
  EXPECT_EQ(bm.allocated_parts(), 0u);
}

TEST(LayeredBitmapTest, UpperTracksDirtyParts) {
  LayeredBitmap bm{4096, 1024};
  bm.set(0);
  bm.set(2048);
  EXPECT_EQ(bm.dirty_parts(), 2u);
  bm.clear(0);
  EXPECT_EQ(bm.dirty_parts(), 1u);
  bm.clear(2048);
  EXPECT_EQ(bm.dirty_parts(), 0u);
  EXPECT_EQ(bm.allocated_parts(), 2u);  // memory retained until fill(false)
}

TEST(LayeredBitmapTest, FillFalseReleasesMemory) {
  LayeredBitmap bm{100000};
  for (std::uint64_t i = 0; i < 100000; i += 1000) bm.set(i);
  EXPECT_GT(bm.allocated_parts(), 0u);
  bm.fill(false);
  EXPECT_EQ(bm.allocated_parts(), 0u);
  EXPECT_EQ(bm.count_set(), 0u);
}

TEST(LayeredBitmapTest, FillTrue) {
  LayeredBitmap bm{5000, 1024};
  bm.fill(true);
  EXPECT_EQ(bm.count_set(), 5000u);
  EXPECT_TRUE(bm.test(4999));
}

TEST(LayeredBitmapTest, SetRangeAcrossParts) {
  LayeredBitmap bm{10000, 1024};
  bm.set_range(1000, 3000);
  EXPECT_EQ(bm.count_set(), 3000u);
  EXPECT_FALSE(bm.test(999));
  EXPECT_TRUE(bm.test(1000));
  EXPECT_TRUE(bm.test(3999));
  EXPECT_FALSE(bm.test(4000));
  EXPECT_EQ(bm.allocated_parts(), 4u);  // parts 0..3 touched
}

TEST(LayeredBitmapTest, NextSetSkipsCleanParts) {
  LayeredBitmap bm{1ull << 20, 1ull << 12};
  bm.set(100);
  bm.set(900000);
  EXPECT_EQ(bm.next_set(0), std::optional<std::uint64_t>{100});
  EXPECT_EQ(bm.next_set(101), std::optional<std::uint64_t>{900000});
  EXPECT_EQ(bm.next_set(900001), std::nullopt);
}

TEST(LayeredBitmapTest, NextSetWithinSamePart) {
  LayeredBitmap bm{8192, 4096};
  bm.set(10);
  bm.set(20);
  EXPECT_EQ(bm.next_set(11), std::optional<std::uint64_t>{20});
}

TEST(LayeredBitmapTest, WireBytesSmallerThanFlatWhenSparse) {
  const std::uint64_t bits = 10ull * 1024 * 1024;  // 40 GiB disk at 4 KB
  LayeredBitmap lb{bits};
  BlockBitmap fb{bits};
  // Localized dirt: one hot region.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    lb.set(500000 + i);
    fb.set(500000 + i);
  }
  EXPECT_LT(lb.wire_bytes(), fb.wire_bytes() / 10);
}

TEST(LayeredBitmapTest, CopyIsDeep) {
  LayeredBitmap a{10000};
  a.set(42);
  LayeredBitmap b = a;
  b.set(43);
  EXPECT_TRUE(b.test(42));
  EXPECT_FALSE(a.test(43));
  EXPECT_EQ(a.count_set(), 1u);
  EXPECT_EQ(b.count_set(), 2u);
}

class BitmapEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: layered and flat bitmaps agree under arbitrary operation streams.
TEST_P(BitmapEquivalenceTest, RandomOpsMatchFlat) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng{seed};
  const std::uint64_t size = 1 + rng.uniform_u64(200000);
  BlockBitmap flat{size};
  LayeredBitmap layered{size, 1ull << (6 + seed % 8)};

  for (int op = 0; op < 3000; ++op) {
    const auto what = rng.uniform_u64(5);
    const std::uint64_t i = rng.uniform_u64(size);
    switch (what) {
      case 0:
      case 1: {
        flat.set(i);
        layered.set(i);
        break;
      }
      case 2: {
        flat.clear(i);
        layered.clear(i);
        break;
      }
      case 3: {
        const std::uint64_t n = std::min(size - i, rng.uniform_u64(300));
        flat.set_range(i, n);
        layered.set_range(i, n);
        break;
      }
      case 4: {
        ASSERT_EQ(flat.test(i), layered.test(i)) << "bit " << i;
        break;
      }
    }
    ASSERT_EQ(flat.count_set(), layered.count_set());
  }

  // Full iteration agreement.
  std::vector<std::uint64_t> f, l;
  flat.for_each_set([&](std::uint64_t i) { f.push_back(i); });
  layered.for_each_set([&](std::uint64_t i) { l.push_back(i); });
  EXPECT_EQ(f, l);

  // next_set agreement at random probes.
  for (int p = 0; p < 200; ++p) {
    const std::uint64_t from = rng.uniform_u64(size + 10);
    ASSERT_EQ(flat.next_set(from), layered.next_set(from)) << "from " << from;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(DirtyBitmapTest, KindSelection) {
  DirtyBitmap flat{BitmapKind::kFlat, 1000};
  DirtyBitmap layered{BitmapKind::kLayered, 1000};
  DirtyBitmap three{BitmapKind::kThreeLevel, 1000};
  EXPECT_EQ(flat.kind(), BitmapKind::kFlat);
  EXPECT_EQ(layered.kind(), BitmapKind::kLayered);
  EXPECT_EQ(three.kind(), BitmapKind::kThreeLevel);
  EXPECT_EQ(flat.size(), 1000u);
  EXPECT_EQ(layered.size(), 1000u);
  EXPECT_EQ(three.size(), 1000u);
}

TEST(DirtyBitmapTest, ForwardingOps) {
  for (const auto kind :
       {BitmapKind::kFlat, BitmapKind::kLayered, BitmapKind::kThreeLevel}) {
    DirtyBitmap bm{kind, 5000};
    bm.set(7);
    bm.set_range(100, 50);
    EXPECT_TRUE(bm.test(7));
    EXPECT_TRUE(bm.test(149));
    EXPECT_EQ(bm.count_set(), 51u);
    EXPECT_EQ(bm.next_set(8), std::optional<std::uint64_t>{100});
    EXPECT_EQ(bm.run_length(100, 500), 50u);
    bm.clear(7);
    EXPECT_EQ(bm.count_set(), 50u);
    std::uint64_t n = 0;
    bm.for_each_set([&](std::uint64_t) { ++n; });
    EXPECT_EQ(n, 50u);
  }
}

TEST(DirtyBitmapTest, TakeAndReset) {
  DirtyBitmap bm{BitmapKind::kLayered, 10000};
  bm.set(1);
  bm.set(9999);
  DirtyBitmap snap = bm.take_and_reset();
  EXPECT_EQ(snap.count_set(), 2u);
  EXPECT_TRUE(snap.test(9999));
  EXPECT_EQ(bm.count_set(), 0u);
  bm.set(5);
  EXPECT_FALSE(snap.test(5));  // snapshot is independent
}

TEST(DirtyBitmapTest, InitiallySetAllBlocks) {
  // IM seeds the first iteration from an all-set bitmap on primal migration.
  DirtyBitmap bm{BitmapKind::kFlat, 123, true};
  EXPECT_EQ(bm.count_set(), 123u);
}

TEST(DirtyBitmapTest, WireBytesLayeredAdvantage) {
  DirtyBitmap flat{BitmapKind::kFlat, 1ull << 23};
  DirtyBitmap layered{BitmapKind::kLayered, 1ull << 23};
  flat.set(12345);
  layered.set(12345);
  EXPECT_LT(layered.wire_bytes(), flat.wire_bytes());
}

TEST(ThreeLevelBitmapTest, BasicSetTestClear) {
  ThreeLevelBitmap bm{100000};
  EXPECT_FALSE(bm.test(54321));
  bm.set(54321);
  EXPECT_TRUE(bm.test(54321));
  EXPECT_EQ(bm.count_set(), 1u);
  bm.clear(54321);
  EXPECT_FALSE(bm.test(54321));
  EXPECT_EQ(bm.count_set(), 0u);
  EXPECT_TRUE(bm.none());
}

TEST(ThreeLevelBitmapTest, InitiallySetRespectsTailBits) {
  ThreeLevelBitmap bm{ThreeLevelBitmap::kBitsPerLine + 70, true};
  EXPECT_EQ(bm.count_set(), ThreeLevelBitmap::kBitsPerLine + 70);
  std::uint64_t seen = 0;
  bm.for_each_set([&](std::uint64_t i) {
    EXPECT_LT(i, ThreeLevelBitmap::kBitsPerLine + 70);
    ++seen;
  });
  EXPECT_EQ(seen, ThreeLevelBitmap::kBitsPerLine + 70);
}

TEST(ThreeLevelBitmapTest, DirtyLinesTracksLines) {
  ThreeLevelBitmap bm{1ull << 20};
  EXPECT_EQ(bm.dirty_lines(), 0u);
  bm.set(0);
  bm.set(ThreeLevelBitmap::kBitsPerLine - 1);  // same line
  EXPECT_EQ(bm.dirty_lines(), 1u);
  bm.set(ThreeLevelBitmap::kBitsPerLine);  // next line
  EXPECT_EQ(bm.dirty_lines(), 2u);
  bm.set(5 * ThreeLevelBitmap::kBitsPerDirWord + 3);  // far region
  EXPECT_EQ(bm.dirty_lines(), 3u);
  bm.clear(ThreeLevelBitmap::kBitsPerLine);
  EXPECT_EQ(bm.dirty_lines(), 2u);
  bm.clear(0);
  EXPECT_EQ(bm.dirty_lines(), 2u);  // line still dirty via its other bit
  bm.clear(ThreeLevelBitmap::kBitsPerLine - 1);
  EXPECT_EQ(bm.dirty_lines(), 1u);
}

TEST(ThreeLevelBitmapTest, NextSetSkipsAcrossAllLevels) {
  // Big enough to span several summary words (one sum word covers
  // 64 * kBitsPerDirWord bits).
  const std::uint64_t size = 3 * 64 * ThreeLevelBitmap::kBitsPerDirWord;
  ThreeLevelBitmap bm{size};
  const std::uint64_t far = size - 7;
  bm.set(100);
  bm.set(far);
  EXPECT_EQ(bm.next_set(0), std::optional<std::uint64_t>{100});
  EXPECT_EQ(bm.next_set(100), std::optional<std::uint64_t>{100});
  EXPECT_EQ(bm.next_set(101), std::optional<std::uint64_t>{far});
  EXPECT_EQ(bm.next_set(far + 1), std::nullopt);
  bm.clear(far);
  EXPECT_EQ(bm.next_set(101), std::nullopt);
}

TEST(ThreeLevelBitmapTest, SetRangeAcrossDirWords) {
  ThreeLevelBitmap bm{4 * ThreeLevelBitmap::kBitsPerDirWord};
  const std::uint64_t start = ThreeLevelBitmap::kBitsPerDirWord - 100;
  bm.set_range(start, 200);  // straddles a directory-word boundary
  EXPECT_EQ(bm.count_set(), 200u);
  EXPECT_FALSE(bm.test(start - 1));
  EXPECT_TRUE(bm.test(start));
  EXPECT_TRUE(bm.test(start + 199));
  EXPECT_FALSE(bm.test(start + 200));
  bm.clear_range(start, 200);
  EXPECT_EQ(bm.count_set(), 0u);
  EXPECT_EQ(bm.dirty_lines(), 0u);
  EXPECT_EQ(bm.next_set(0), std::nullopt);
}

TEST(ThreeLevelBitmapTest, WireBytesSparseAdvantage) {
  const std::uint64_t bits = 10ull * 1024 * 1024;  // 40 GiB disk at 4 KB
  ThreeLevelBitmap tl{bits};
  BlockBitmap fb{bits};
  for (std::uint64_t i = 0; i < 10000; ++i) {
    tl.set(500000 + i);
    fb.set(500000 + i);
  }
  EXPECT_LT(tl.wire_bytes(), fb.wire_bytes() / 10);
}

// Property: all three DirtyBitmap kinds agree bit-for-bit under arbitrary
// operation streams, probes, iteration order, and cross-kind word-wise
// or_with/subtract.
class DirtyBitmapDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirtyBitmapDifferentialTest, AllKindsAgree) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng{seed};
  const std::uint64_t size = 1 + rng.uniform_u64(300000);
  std::array<DirtyBitmap, 3> bms{
      DirtyBitmap{BitmapKind::kFlat, size},
      DirtyBitmap{BitmapKind::kLayered, size},
      DirtyBitmap{BitmapKind::kThreeLevel, size},
  };

  for (int op = 0; op < 2000; ++op) {
    const auto what = rng.uniform_u64(6);
    const std::uint64_t i = rng.uniform_u64(size);
    const std::uint64_t n = std::min(size - i, rng.uniform_u64(600));
    for (auto& bm : bms) {
      switch (what) {
        case 0:
        case 1: bm.set(i); break;
        case 2: bm.clear(i); break;
        case 3: bm.set_range(i, n); break;
        case 4: bm.clear_range(i, n); break;
        case 5: ASSERT_EQ(bm.test(i), bms[0].test(i)) << "bit " << i; break;
      }
    }
    ASSERT_EQ(bms[1].count_set(), bms[0].count_set()) << "op " << op;
    ASSERT_EQ(bms[2].count_set(), bms[0].count_set()) << "op " << op;
  }

  // Full iteration agreement (value and order).
  std::vector<std::uint64_t> ref;
  bms[0].for_each_set([&](std::uint64_t i) { ref.push_back(i); });
  for (std::size_t k = 1; k < bms.size(); ++k) {
    std::vector<std::uint64_t> got;
    bms[k].for_each_set([&](std::uint64_t i) { got.push_back(i); });
    ASSERT_EQ(got, ref) << "kind " << to_string(bms[k].kind());
  }

  // Probe agreement: next_set / next_clear / run_length / next_set_run /
  // windowed iteration at random positions.
  for (int p = 0; p < 300; ++p) {
    const std::uint64_t from = rng.uniform_u64(size);
    const std::uint64_t cnt = std::min(size - from, rng.uniform_u64(5000));
    const std::uint64_t cap = 1 + rng.uniform_u64(400);
    std::vector<std::uint64_t> win_ref;
    bms[0].for_each_set_in(from, cnt, [&](std::uint64_t i) {
      win_ref.push_back(i);
    });
    for (std::size_t k = 1; k < bms.size(); ++k) {
      ASSERT_EQ(bms[k].next_set(from), bms[0].next_set(from)) << from;
      ASSERT_EQ(bms[k].next_clear(from), bms[0].next_clear(from)) << from;
      ASSERT_EQ(bms[k].run_length(from, cap), bms[0].run_length(from, cap));
      ASSERT_EQ(bms[k].next_set_run(from, from + cnt, cap),
                bms[0].next_set_run(from, from + cnt, cap))
          << "from " << from << " cnt " << cnt << " cap " << cap;
      std::vector<std::uint64_t> win;
      bms[k].for_each_set_in(from, cnt, [&](std::uint64_t i) {
        win.push_back(i);
      });
      ASSERT_EQ(win, win_ref) << "window " << from << "+" << cnt;
    }
  }

  // Cross-kind word-wise ops: union and subtraction of a differently-typed
  // bitmap give the same result on every kind.
  DirtyBitmap other{BitmapKind::kThreeLevel, size};
  for (int b = 0; b < 100; ++b) other.set(rng.uniform_u64(size));
  DirtyBitmap mask{BitmapKind::kLayered, size};
  for (int b = 0; b < 100; ++b) mask.set(rng.uniform_u64(size));
  for (auto& bm : bms) {
    bm.or_with(other);
    bm.subtract(mask);
  }
  ASSERT_EQ(bms[1].count_set(), bms[0].count_set());
  ASSERT_EQ(bms[2].count_set(), bms[0].count_set());

  // take_and_reset: snapshot matches, original drains, on every kind.
  for (auto& bm : bms) {
    const std::uint64_t before = bm.count_set();
    DirtyBitmap snap = bm.take_and_reset();
    EXPECT_EQ(snap.count_set(), before);
    EXPECT_EQ(bm.count_set(), 0u);
    EXPECT_EQ(bm.next_set(0), std::nullopt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtyBitmapDifferentialTest,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19, 23, 29));

TEST(SetRunCursorTest, YieldsMaximalRunsCappedAtMaxLen) {
  for (const auto kind :
       {BitmapKind::kFlat, BitmapKind::kLayered, BitmapKind::kThreeLevel}) {
    DirtyBitmap bm{kind, 10000};
    bm.set_range(10, 5);     // short run
    bm.set_range(100, 300);  // long run, will be split by max_len
    bm.set(9999);            // single bit at the tail
    SetRunCursor cur{bm};
    auto r = cur.next(128);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->start, 10u);
    EXPECT_EQ(r->len, 5u);
    r = cur.next(128);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->start, 100u);
    EXPECT_EQ(r->len, 128u);
    r = cur.next(128);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->start, 228u);
    EXPECT_EQ(r->len, 128u);
    r = cur.next(128);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->start, 356u);
    EXPECT_EQ(r->len, 44u);
    r = cur.next(128);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->start, 9999u);
    EXPECT_EQ(r->len, 1u);
    EXPECT_EQ(cur.next(128), std::nullopt);
    EXPECT_EQ(cur.pos(), 10000u);
  }
}

TEST(SetRunCursorTest, RespectsWindowBounds) {
  DirtyBitmap bm{BitmapKind::kThreeLevel, 1000};
  bm.set_range(0, 1000);
  SetRunCursor cur{bm, 200, 500};
  auto r = cur.next(1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->start, 200u);
  EXPECT_EQ(r->len, 300u);  // clipped to [200, 500)
  EXPECT_EQ(cur.next(1000), std::nullopt);
}

TEST(SetRunCursorTest, EmptyBitmapYieldsNothing) {
  DirtyBitmap bm{BitmapKind::kThreeLevel, 1000};
  SetRunCursor cur{bm};
  EXPECT_EQ(cur.next(64), std::nullopt);
}

// ------------------------------------------------------------ scan cost
// A word load is the unit of wordops cost. This view implements the
// word-cursor contract over a BlockBitmap and counts every leaf word a
// traversal touches, so cost bounds are asserted as exact work, not time.

class CountingWords {
 public:
  explicit CountingWords(const BlockBitmap& bm) : bm_{bm} {}
  std::uint64_t size() const { return bm_.size(); }
  std::uint64_t word_count() const { return bm_.word_count(); }
  std::uint64_t skip_to_live(std::uint64_t wi) const {
    return bm_.skip_to_live(wi);
  }
  std::uint64_t leaf_word(std::uint64_t wi) const {
    ++loads_;
    highest_ = std::max(highest_, wi);
    return bm_.leaf_word(wi);
  }
  std::uint64_t loads() const { return loads_; }
  std::uint64_t highest() const { return highest_; }

 private:
  const BlockBitmap& bm_;
  mutable std::uint64_t loads_ = 0;
  mutable std::uint64_t highest_ = 0;
};

/// Words loaded by the pre-copy first pass over an all-set n-block bitmap:
/// a run-cursor sweep in 256-block chunks, as the TPM reader does it.
std::uint64_t first_pass_word_loads(std::uint64_t n) {
  const BlockBitmap bm{n, /*initially_set=*/true};
  const CountingWords words{bm};
  std::uint64_t pos = 0;
  while (const auto run = wordops::next_set_run(words, pos, n, 256)) {
    EXPECT_EQ(run->start, pos);
    EXPECT_EQ(run->len, std::min<std::uint64_t>(256, n - pos));
    pos = run->start + run->len;
  }
  EXPECT_EQ(pos, n);
  return words.loads();
}

TEST(WordopsCostTest, FirstPassSweepLoadsLinearlyManyWords) {
  constexpr std::uint64_t kN = 1 << 16;
  const std::uint64_t loads = first_pass_word_loads(kN);
  // Each chunk reads its own four words plus the one next_set starts on;
  // an unbounded run scan reads to the end of the disk for every chunk.
  EXPECT_LE(loads, kN / 64 + 2 * ((kN + 255) / 256));
  EXPECT_EQ(first_pass_word_loads(2 * kN), 2 * loads);
}

TEST(WordopsCostTest, RunClippedByEndLoadsNothingPastEnd) {
  const BlockBitmap bm{1 << 14, /*initially_set=*/true};
  for (const std::uint64_t end : {1000ull, 1024ull, 4097ull}) {
    const CountingWords words{bm};
    const auto run = wordops::next_set_run(words, 100, end, ~std::uint64_t{0});
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(*run, (SetRun{100, end - 100}));
    EXPECT_LE(words.highest(), (end - 1) / 64) << "end " << end;
    // The cursor's last call, starting at end, loads nothing at all.
    const CountingWords after{bm};
    EXPECT_EQ(wordops::next_set_run(after, end, end, 256), std::nullopt);
    EXPECT_EQ(after.loads(), 0u);
  }
}

TEST(WordopsCostTest, RunLengthLoadsOnlyItsChunk) {
  const BlockBitmap bm{1 << 14, /*initially_set=*/true};
  const CountingWords words{bm};
  EXPECT_EQ(wordops::run_length(words, 64, 256), 256u);
  EXPECT_EQ(words.loads(), 4u);
}

// Property: the bounded scans agree with a bit-by-bit reference on random
// bitmaps, windows and caps.
TEST(WordopsCostTest, BoundedScansMatchBitByBitReference) {
  sim::Rng rng{42};
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t size = 1 + rng.uniform_u64(5000);
    BlockBitmap bm{size};
    for (int k = 0; k < 40; ++k) {
      const std::uint64_t s = rng.uniform_u64(size);
      bm.set_range(s, std::min(size - s, rng.uniform_u64(300)));
    }
    for (int p = 0; p < 200; ++p) {
      const std::uint64_t from = rng.uniform_u64(size + 2);
      const std::uint64_t end = rng.uniform_u64(size + 70);
      const std::uint64_t cap = 1 + rng.uniform_u64(500);
      std::optional<SetRun> want;
      for (std::uint64_t b = from; b < std::min(end, size); ++b) {
        if (!bm.test(b)) continue;
        std::uint64_t len = 0;
        while (b + len < std::min(end, size) && len < cap && bm.test(b + len)) {
          ++len;
        }
        want = SetRun{b, len};
        break;
      }
      ASSERT_EQ(wordops::next_set_run(bm, from, end, cap), want)
          << "size " << size << " from " << from << " end " << end;
      std::uint64_t clear = std::min(from, size);
      while (clear < size && bm.test(clear)) ++clear;
      ASSERT_EQ(bm.next_clear(from), clear) << "from " << from;
    }
  }
}

}  // namespace
}  // namespace vmig::core

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <variant>

#include "core/block_bitmap.hpp"
#include "core/layered_bitmap.hpp"
#include "core/three_level_bitmap.hpp"

namespace vmig::core {

enum class BitmapKind : std::uint8_t { kFlat, kLayered, kThreeLevel };

inline const char* to_string(BitmapKind k) {
  switch (k) {
    case BitmapKind::kFlat: return "flat";
    case BitmapKind::kLayered: return "layered";
    case BitmapKind::kThreeLevel: return "3level";
  }
  return "?";
}

/// Value-semantic dirty-block bitmap: flat, 2-level, or 3-level per
/// configuration.
///
/// This is the object the split driver (`vmig::vm::BlkBackend`) maintains,
/// `blkd` snapshots each pre-copy iteration, and the freeze phase ships to
/// the destination. `take_and_reset()` implements the paper's
/// copy-then-reset at the start of each iteration.
///
/// Dispatch is a branch on the variant index into concrete (often inlined)
/// calls — there is deliberately no `std::visit` anywhere on the per-bit or
/// per-word path: every traversal goes through the word-cursor contract
/// (core/bitmap_words.hpp), so the cost per probe is a predicted switch, not
/// a vtable-like visit thunk per bit.
// Per-method dispatch: a switch on the variant index into a statement over
// the concrete bitmap `b`. Undefined right after the class; kept as a macro
// so adding a bitmap kind is a one-line change per method.
#define VMIG_BITMAP_DISPATCH(stmt)                                      \
  switch (impl_.index()) {                                              \
    case 1: { auto& b = *std::get_if<LayeredBitmap>(&impl_); stmt; }    \
      break;                                                            \
    case 2: { auto& b = *std::get_if<ThreeLevelBitmap>(&impl_); stmt; } \
      break;                                                            \
    default: { auto& b = *std::get_if<BlockBitmap>(&impl_); stmt; }     \
  }
class DirtyBitmap {
 public:
  DirtyBitmap() : impl_{BlockBitmap{}} {}
  DirtyBitmap(BitmapKind kind, std::uint64_t size_bits, bool initially_set = false)
      : impl_{make_impl(kind, size_bits, initially_set)} {}

  BitmapKind kind() const noexcept {
    return static_cast<BitmapKind>(impl_.index());
  }

  std::uint64_t size() const {
    VMIG_BITMAP_DISPATCH(return b.size());
  }
  bool test(std::uint64_t i) const {
    VMIG_BITMAP_DISPATCH(return b.test(i));
  }
  void set(std::uint64_t i) {
    VMIG_BITMAP_DISPATCH(return b.set(i));
  }
  void clear(std::uint64_t i) {
    VMIG_BITMAP_DISPATCH(return b.clear(i));
  }
  void set_range(std::uint64_t start, std::uint64_t count) {
    VMIG_BITMAP_DISPATCH(return b.set_range(start, count));
  }
  void clear_range(std::uint64_t start, std::uint64_t count) {
    VMIG_BITMAP_DISPATCH(return b.clear_range(start, count));
  }
  void fill(bool value) {
    VMIG_BITMAP_DISPATCH(return b.fill(value));
  }
  std::uint64_t count_set() const {
    VMIG_BITMAP_DISPATCH(return b.count_set());
  }
  bool any() const { return count_set() > 0; }
  bool none() const { return count_set() == 0; }
  std::optional<std::uint64_t> next_set(std::uint64_t from) const {
    VMIG_BITMAP_DISPATCH(return b.next_set(from));
  }
  /// Index of the first set bit in [from, limit); nullopt if none. Loads
  /// only the words of that window.
  std::optional<std::uint64_t> next_set_before(std::uint64_t from,
                                               std::uint64_t limit) const {
    VMIG_BITMAP_DISPATCH(return wordops::next_set_before(b, from, limit));
  }
  /// Index of the first clear bit at or after `from`; size() if none.
  std::uint64_t next_clear(std::uint64_t from) const {
    VMIG_BITMAP_DISPATCH(return b.next_clear(from));
  }
  std::uint64_t run_length(std::uint64_t from, std::uint64_t max_len) const {
    VMIG_BITMAP_DISPATCH(return b.run_length(from, max_len));
  }
  template <typename F>
  void for_each_set(F&& f) const {
    VMIG_BITMAP_DISPATCH(return b.for_each_set(std::forward<F>(f)));
  }
  /// Invoke f(index) for each set bit in [start, start + count), ascending.
  template <typename F>
  void for_each_set_in(std::uint64_t start, std::uint64_t count, F&& f) const {
    VMIG_BITMAP_DISPATCH(return b.for_each_set_in(start, count, std::forward<F>(f)));
  }
  std::uint64_t bytes() const {
    VMIG_BITMAP_DISPATCH(return b.bytes());
  }
  std::uint64_t wire_bytes() const {
    VMIG_BITMAP_DISPATCH(return b.wire_bytes());
  }

  // -- word-cursor contract (core/bitmap_words.hpp), forwarded --
  std::uint64_t word_count() const {
    VMIG_BITMAP_DISPATCH(return b.word_count());
  }
  std::uint64_t leaf_word(std::uint64_t wi) const {
    VMIG_BITMAP_DISPATCH(return b.leaf_word(wi));
  }
  std::uint64_t skip_to_live(std::uint64_t wi) const {
    VMIG_BITMAP_DISPATCH(return b.skip_to_live(wi));
  }
  void or_word(std::uint64_t wi, std::uint64_t bits) {
    VMIG_BITMAP_DISPATCH(return b.or_word(wi, bits));
  }
  void andnot_word(std::uint64_t wi, std::uint64_t bits) {
    VMIG_BITMAP_DISPATCH(return b.andnot_word(wi, bits));
  }

  /// The next run of consecutive set bits at or after `from`, clipped to
  /// [from, end) and capped at `max_len` bits; nullopt when exhausted.
  std::optional<SetRun> next_set_run(std::uint64_t from, std::uint64_t end,
                                     std::uint64_t max_len) const {
    VMIG_BITMAP_DISPATCH(return wordops::next_set_run(b, from, end, max_len));
  }

  /// Snapshot the current contents and reset this bitmap to all-clean.
  /// (blkd's per-iteration "copy to blkd, then reset for the next round".)
  DirtyBitmap take_and_reset() {
    DirtyBitmap copy = *this;
    fill(false);
    return copy;
  }

  /// take_and_reset into a caller-owned buffer. When `out` already holds a
  /// same-kind same-size bitmap (the steady state: one reused snapshot
  /// buffer per migration), the copy assignment lands in out's existing
  /// storage and the whole snapshot allocates nothing for flat and
  /// three-level bitmaps (layered reallocates its live parts).
  void take_and_reset_into(DirtyBitmap& out) {
    out = *this;
    fill(false);
  }

  /// In-place union; word-wise, works across kinds (cost is o's live words).
  void or_with(const DirtyBitmap& o) {
    o.dispatch_const([this](const auto& src) {
      VMIG_BITMAP_DISPATCH(return wordops::or_from(b, src));
    });
  }

  /// In-place subtraction (this &= ~o); word-wise, works across kinds.
  void subtract(const DirtyBitmap& o) {
    o.dispatch_const([this](const auto& src) {
      VMIG_BITMAP_DISPATCH(return wordops::subtract_from(b, src));
    });
  }

 private:
  using Impl = std::variant<BlockBitmap, LayeredBitmap, ThreeLevelBitmap>;

  static Impl make_impl(BitmapKind kind, std::uint64_t size_bits,
                        bool initially_set) {
    switch (kind) {
      case BitmapKind::kLayered:
        return LayeredBitmap{size_bits, LayeredBitmap::kDefaultPartBits,
                             initially_set};
      case BitmapKind::kThreeLevel:
        return ThreeLevelBitmap{size_bits, initially_set};
      case BitmapKind::kFlat:
        break;
    }
    return BlockBitmap{size_bits, initially_set};
  }

  /// One branch on the variant index, then a concrete call. This is the
  /// whole-bitmap dispatch (kind chosen per call, not per bit); traversal
  /// loops live inside the concrete bitmap via wordops.
  template <typename F>
  void dispatch_const(F&& f) const {
    switch (impl_.index()) {
      case 1: return f(*std::get_if<LayeredBitmap>(&impl_));
      case 2: return f(*std::get_if<ThreeLevelBitmap>(&impl_));
      default: return f(*std::get_if<BlockBitmap>(&impl_));
    }
  }

  Impl impl_;
};
#undef VMIG_BITMAP_DISPATCH

/// Forward cursor over a DirtyBitmap yielding maximal (start, len) runs of
/// set bits — the range-level replacement for per-bit cursor loops at call
/// sites (tpm pre-copy reader, post-copy pull issue). The referenced bitmap
/// must outlive the cursor and stay unmodified while iterating (snapshot
/// semantics: iterate a `take_and_reset()` copy).
class SetRunCursor {
 public:
  explicit SetRunCursor(const DirtyBitmap& bm, std::uint64_t from = 0,
                        std::uint64_t end = ~std::uint64_t{0})
      : bm_{&bm}, pos_{from}, end_{end > bm.size() ? bm.size() : end} {}

  /// The next run of up to `max_len` set bits; nullopt when exhausted.
  std::optional<SetRun> next(std::uint64_t max_len) {
    const auto run = bm_->next_set_run(pos_, end_, max_len);
    if (run.has_value()) pos_ = run->start + run->len;
    return run;
  }

  /// Bit position the next `next()` call will scan from.
  std::uint64_t pos() const noexcept { return pos_; }

 private:
  const DirtyBitmap* bm_;
  std::uint64_t pos_;
  std::uint64_t end_;
};

}  // namespace vmig::core

#pragma once

#include <bit>
#include <cstdint>
#include <optional>

namespace vmig::core {

/// A maximal run of consecutive set bits: [start, start + len).
struct SetRun {
  std::uint64_t start = 0;
  std::uint64_t len = 0;
  bool operator==(const SetRun&) const = default;
};

/// Word-cursor contract shared by every bitmap kind (the abstraction that
/// replaced DirtyBitmap's per-bit variant dispatch).
///
/// A bitmap models its bit space as an array of 64-bit leaf words and
/// exposes three word-level accessors:
///
///   std::uint64_t word_count() const;        // number of leaf words
///   std::uint64_t leaf_word(wi) const;       // word wi (0 if unallocated)
///   std::uint64_t skip_to_live(wi) const;    // first index >= wi that is
///                                            // not provably zero, else
///                                            // word_count()
///
/// `skip_to_live` is where the hierarchy earns its keep: the flat bitmap
/// returns `wi` (no skipping), the 2-level bitmap jumps over clean parts via
/// its upper level, and the 3-level bitmap jumps over clean cache lines via
/// summary + line directory. Every traversal below is written once against
/// this contract and instantiated per kind, so iteration advances a word
/// (64 bits) — not a bit — per step, with `popcount`/`countr_zero` doing the
/// in-word work.
///
/// Every scan takes an exclusive `limit` and loads no leaf word past the one
/// holding bit `limit - 1`, so a bounded query costs O(window / 64) words
/// however far the set (or clear) stretch beyond it reaches.
namespace wordops {

// vmig-lint: hot-begin -- bounded run scan: the pre-copy reader and the
// post-copy push/intake call these once per chunk; they must stay
// allocation-free and load only the words of their window

/// Index of the first set bit in [from, limit); nullopt if none.
template <typename BM>
std::optional<std::uint64_t> next_set_before(const BM& bm, std::uint64_t from,
                                             std::uint64_t limit) {
  if (limit > bm.size()) limit = bm.size();
  if (from >= limit) return std::nullopt;
  const std::uint64_t last = (limit - 1) >> 6;
  std::uint64_t wi = from >> 6;
  std::uint64_t w = bm.leaf_word(wi) & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (w != 0) {
      const std::uint64_t i =
          wi * 64 + static_cast<std::uint64_t>(std::countr_zero(w));
      return i < limit ? std::optional<std::uint64_t>{i} : std::nullopt;
    }
    wi = bm.skip_to_live(wi + 1);
    if (wi > last) return std::nullopt;
    w = bm.leaf_word(wi);
  }
}

/// Index of the first set bit at or after `from`; nullopt if none.
template <typename BM>
std::optional<std::uint64_t> next_set(const BM& bm, std::uint64_t from) {
  return next_set_before(bm, from, bm.size());
}

/// Index of the first *clear* bit in [from, limit); `limit` if every bit in
/// the window is set. Clear bits have no skip hierarchy, but any word that
/// is not all-ones stops the scan, so the cost is one load per 64 bits of
/// solid dirt — inside the window only.
template <typename BM>
std::uint64_t next_clear_before(const BM& bm, std::uint64_t from,
                                std::uint64_t limit) {
  if (limit > bm.size()) limit = bm.size();
  if (from >= limit) return limit;
  const std::uint64_t last = (limit - 1) >> 6;
  std::uint64_t wi = from >> 6;
  std::uint64_t w = ~bm.leaf_word(wi) & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (w != 0) {
      const std::uint64_t i =
          wi * 64 + static_cast<std::uint64_t>(std::countr_zero(w));
      return i < limit ? i : limit;
    }
    if (++wi > last) return limit;
    w = ~bm.leaf_word(wi);
  }
}

/// Index of the first *clear* bit at or after `from`; size() if none.
template <typename BM>
std::uint64_t next_clear(const BM& bm, std::uint64_t from) {
  return next_clear_before(bm, from, bm.size());
}

/// End of a window of at most `max_len` bits starting at `from`, clipped to
/// `end` (overflow-safe for max_len = ~0).
inline std::uint64_t window_end(std::uint64_t from, std::uint64_t end,
                                std::uint64_t max_len) {
  return from < end && max_len < end - from ? from + max_len : end;
}

/// Length of the run of consecutive set bits starting exactly at `from`
/// (`from` must be set), capped at `max_len`. Costs O(max_len / 64) words.
template <typename BM>
std::uint64_t run_length(const BM& bm, std::uint64_t from, std::uint64_t max_len) {
  if (from >= bm.size()) return 0;
  return next_clear_before(bm, from, window_end(from, bm.size(), max_len)) -
         from;
}

/// The next set run at or after `from`, clipped to [from, end); nullopt when
/// no set bit remains in the window. `max_len` caps the run (transfer chunk).
/// Loads no word past min(start + max_len, end, size()).
template <typename BM>
std::optional<SetRun> next_set_run(const BM& bm, std::uint64_t from,
                                   std::uint64_t end, std::uint64_t max_len) {
  const auto s = next_set_before(bm, from, end);
  if (!s.has_value()) return std::nullopt;
  const std::uint64_t stop =
      next_clear_before(bm, *s, window_end(*s, end, max_len));
  return SetRun{*s, stop - *s};
}
// vmig-lint: hot-end

/// Invoke f(index) for each set bit in [start, start + count), ascending.
template <typename BM, typename F>
void for_each_set_in(const BM& bm, std::uint64_t start, std::uint64_t count,
                     F&& f) {
  std::uint64_t end = start + count;
  if (end > bm.size()) end = bm.size();
  if (start >= end) return;
  const std::uint64_t last_w = (end - 1) >> 6;
  const std::uint64_t tail = end & 63;
  const std::uint64_t tail_mask =
      tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  std::uint64_t wi = start >> 6;
  std::uint64_t w = bm.leaf_word(wi) & (~std::uint64_t{0} << (start & 63));
  for (;;) {
    if (wi == last_w) w &= tail_mask;
    while (w != 0) {
      f(wi * 64 + static_cast<std::uint64_t>(std::countr_zero(w)));
      w &= w - 1;
    }
    if (wi >= last_w) return;
    wi = bm.skip_to_live(wi + 1);
    if (wi > last_w) return;
    w = bm.leaf_word(wi);
  }
}

/// Invoke f(index) for every set bit, ascending.
template <typename BM, typename F>
void for_each_set(const BM& bm, F&& f) {
  for_each_set_in(bm, 0, bm.size(), std::forward<F>(f));
}

/// Word-wise in-place union: dst |= src, visiting only src's live words.
/// Works across kinds; dst must expose or_word(wi, bits).
template <typename Dst, typename Src>
void or_from(Dst& dst, const Src& src) {
  const std::uint64_t nw = src.word_count();
  for (std::uint64_t wi = src.skip_to_live(0); wi < nw;
       wi = src.skip_to_live(wi + 1)) {
    if (const std::uint64_t w = src.leaf_word(wi); w != 0) dst.or_word(wi, w);
  }
}

/// Word-wise in-place subtraction: dst &= ~src, visiting only src's live
/// words. Works across kinds; dst must expose andnot_word(wi, bits).
template <typename Dst, typename Src>
void subtract_from(Dst& dst, const Src& src) {
  const std::uint64_t nw = src.word_count();
  for (std::uint64_t wi = src.skip_to_live(0); wi < nw;
       wi = src.skip_to_live(wi + 1)) {
    if (const std::uint64_t w = src.leaf_word(wi); w != 0) {
      dst.andnot_word(wi, w);
    }
  }
}

}  // namespace wordops
}  // namespace vmig::core

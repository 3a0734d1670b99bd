#pragma once

#include <cstddef>
#include <cstdint>
#include <new>  // vmig-lint: d5-ok -- header for ::operator new, not an allocation
#include <vector>

#include "obs/profiler.hpp"

namespace vmig::sim::detail {

/// Thread-local size-class free list for coroutine frames.
///
/// The simulator's steady state creates and destroys short-lived coroutines
/// (intercepted post-copy requests, pull handlers) at event rate; routing
/// their frames through the general heap makes every dispatch an allocator
/// call.
/// Frames recycle here instead: 64-byte size classes up to 4 KiB, one free
/// list per class, oversized frames fall through to the global heap. A
/// 16-byte header keeps the class index (so unsized delete works) and
/// preserves max_align_t alignment for the frame that follows.
///
/// The arena is thread_local because the simulator itself is
/// single-threaded per instance; tests may run simulators on several
/// threads. Blocks parked on a free list are reachable from the arena and
/// are released by its destructor at thread exit, so leak checkers stay
/// quiet.
// vmig-lint: d5-begin -- frame-pool allocator pen: the arena IS the RAII
// owner; raw ::operator new/delete are the pool's backing store, and parked
// blocks are released by the thread-local Lists destructor.
class FrameArena {
 public:
  static void* allocate(std::size_t n) {
    ++allocations_;
    const std::size_t cls = (n + kHeader + kGranule - 1) / kGranule;
    void* raw;
    if (cls >= kClasses) {
      raw = ::operator new(n + kHeader);
      header(raw) = 0;  // class 0 = not pooled
    } else {
      auto& fl = lists().by_class[cls];
      if (!fl.empty()) {
        raw = fl.back();
        fl.pop_back();
      } else {
        // Free-list miss: a new high-water mark of simultaneously-live
        // frames in this size class. The block becomes permanent pool
        // capacity (amortized growth, like vector doubling), so it is
        // charged kOther — steady-state frame churn hits the reuse branch
        // above and stays allocation-free. Oversized frames (class 0) stay
        // attributed to their caller: those DO malloc per use.
        obs::ProfScope grow_prof{obs::ProfCategory::kOther};
        raw = ::operator new(cls * kGranule);  // h2-ok
      }
      header(raw) = cls;
    }
    return static_cast<char*>(raw) + kHeader;
  }

  /// Frames allocated on this thread so far: one per coroutine started,
  /// pooled or not. Exact and deterministic for a deterministic run.
  static std::uint64_t allocations() noexcept { return allocations_; }

  static void deallocate(void* p) noexcept {
    if (p == nullptr) return;
    void* raw = static_cast<char*>(p) - kHeader;
    const std::size_t cls = header(raw);
    if (cls == 0) {
      ::operator delete(raw);
      return;
    }
    try {
      // Parking a block can grow the free-list vector itself (pool
      // bookkeeping at a new high-water mark) — amortized capacity,
      // charged kOther like the block growth in allocate().
      obs::ProfScope park_prof{obs::ProfCategory::kOther};
      lists().by_class[cls].push_back(raw);  // h2-ok
    } catch (...) {
      ::operator delete(raw);  // free-list growth failed: just free
    }
  }

 private:
  static constexpr std::size_t kHeader = 16;   // keeps 16-byte frame alignment
  static constexpr std::size_t kGranule = 64;  // size-class width
  static constexpr std::size_t kClasses = 65;  // pool frames up to ~4 KiB

  static inline thread_local std::uint64_t allocations_ = 0;

  static std::size_t& header(void* raw) noexcept {
    return *static_cast<std::size_t*>(raw);
  }

  struct Lists {
    std::vector<void*> by_class[kClasses];
    ~Lists() {
      for (auto& v : by_class) {
        for (void* p : v) ::operator delete(p);
      }
    }
  };

  static Lists& lists() {
    static thread_local Lists l;
    return l;
  }
};
// vmig-lint: d5-end

}  // namespace vmig::sim::detail

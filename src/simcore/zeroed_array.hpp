#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>  // vmig-lint: d5-ok -- header for std::bad_alloc, not an allocation
#include <type_traits>

#include "obs/profiler.hpp"

namespace vmig::sim {

/// Releases a `make_zeroed_array` allocation.
struct FreeDeleter {
  void operator()(void* p) const noexcept { std::free(p); }
};

/// Owning array whose elements start as all-zero bytes.
template <typename T>
using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;

/// Allocate `n` zero-byte elements without writing them: `calloc` hands
/// out fresh memory the kernel maps as zero on first touch, so building a
/// large, mostly-untouched table (a disk's token pages, a guest's page
/// versions) costs no page faults up front. T must be valid as all-zero
/// bytes. The active profiler counts it, as it counts `operator new`.
template <typename T>
ZeroedArray<T> make_zeroed_array(std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  if (obs::Profiler* prof = obs::Profiler::active(); prof != nullptr) {
    prof->note_alloc(n * sizeof(T));
  }
  void* p = std::calloc(n == 0 ? 1 : n, sizeof(T));
  if (p == nullptr) throw std::bad_alloc{};
  return ZeroedArray<T>{static_cast<T*>(p)};
}

}  // namespace vmig::sim

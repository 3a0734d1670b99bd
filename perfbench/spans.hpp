#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"

namespace perfbench {

/// Per-name wall-time totals of the benchmark's own calls into the library:
/// testbed construction, registration, prefill, submit, the drain/run call,
/// and the migration phases stamped by the progress listener. Wall time is
/// read through obs::WallStopwatch. Names are string literals.
class SpanLog {
 public:
  /// Wall nanoseconds since the log was created.
  std::uint64_t now_ns() const { return clock_.elapsed_ns(); }

  /// Charge `ns` nanoseconds to `name`.
  void add(std::string_view name, std::uint64_t ns) {
    for (auto& [n, total] : totals_) {
      if (n == name) {
        total += ns;
        return;
      }
    }
    totals_.emplace_back(name, ns);
  }

  /// Total milliseconds charged to `name`.
  double total_ms(std::string_view name) const {
    for (const auto& [n, total] : totals_) {
      if (n == name) return static_cast<double>(total) / 1e6;
    }
    return 0;
  }

 private:
  vmig::obs::WallStopwatch clock_;
  std::vector<std::pair<std::string_view, std::uint64_t>> totals_;
};

/// Charges its lifetime to `name` in `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name)
      : log_{log}, name_{name}, t0_ns_{log.now_ns()} {}
  ~ScopedSpan() { log_.add(name_, log_.now_ns() - t0_ns_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::string_view name_;
  std::uint64_t t0_ns_;
};

}  // namespace perfbench

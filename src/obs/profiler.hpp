#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// Wall-clock self-profiler for the simulator itself.
//
// Everything else in src/obs measures *simulated* time; this layer measures
// the wall time the simulator burns producing it, attributed to a small set
// of fixed categories (event dispatch, bitmap scan/mark, disk iterations,
// post-copy pulls, recorder emits, orchestrator ticks). It exists to guide
// and gate the scale/perf work: `bench_scale` reports events/sec through it
// and `vmig_sim --profile` prints the per-category table.
//
// Design rules:
//  - Dependency-free: this header pulls in nothing but the standard library,
//    so simcore (which sits *below* obs in the layering) can carry probes.
//    The build target is `vmig_profiler`, linked PUBLIC into vmig_simcore.
//  - Opt-in and inert when off: no Profiler is active by default; a probe
//    site then costs one load-and-branch on a process-wide pointer and
//    touches no memory. Defining VMIG_PROFILER_DISABLED at compile time
//    turns every probe into an actual no-op.
//  - Wall-clock is *penned*: the only wall-clock reads in the tree live in
//    profiler.cpp inside a `vmig-lint: d1-begin/d1-end` region. Profiler
//    state never feeds back into simulated behavior, so a profiled run's
//    simulated artifacts are byte-identical to an unprofiled one
//    (tests/profiler_test.cpp pins this).
//  - Scopes must not span a co_await: the simulator interleaves coroutines,
//    so a scope held across a suspension would swallow other tasks' work
//    and break stack nesting. Probes wrap synchronous sections only.
//
// The profiler is single-threaded by design, like the simulator it measures.

namespace vmig::obs {

/// Fixed attribution categories. Kept deliberately coarse: one per
/// subsystem hot path, so the table answers "where does the wall time go"
/// without per-function noise.
enum class ProfCategory : std::uint8_t {
  kSimDispatch = 0,   ///< simcore event dispatch (Simulator::step)
  kBitmapScan,        ///< block-bitmap walks: next_set/run_length/for_each_set
  kBitmapMark,        ///< dirty-mark path (BlkBackend write tracking)
  kDiskIteration,     ///< TPM pre-copy chunk accounting and framing
  kPostCopyPull,      ///< post-copy pull bookkeeping (source and dest side)
  kRecorderEmit,      ///< flight-recorder event emission
  kOrchestratorTick,  ///< cluster orchestrator scheduling pass
  kOther,             ///< fallback: unscoped allocations land here
  kCount
};

/// Stable lowercase name ("sim_dispatch", "bitmap_scan", ...).
const char* to_string(ProfCategory c) noexcept;

/// Per-category aggregate. Inclusive time counts nested child scopes;
/// exclusive does not. `events` is a caller-supplied work counter
/// (events dispatched, blocks scanned, ...) giving events/sec.
struct ProfCategoryStats {
  std::uint64_t calls = 0;
  std::uint64_t events = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t exclusive_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Aggregating wall-clock profiler. Create one, `activate()` it, run the
/// experiment, then render `table()` / `flat_metrics()` / `collapsed()`.
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Install as the process-wide active profiler (replacing any other).
  void activate() noexcept;
  /// Remove whichever profiler is active; probes go inert again.
  static void deactivate() noexcept;
  static Profiler* active() noexcept { return active_; }

  // -- probe interface (via ProfScope / prof_count; out-of-line so the
  //    inactive path stays a single branch at the call site) --
  void begin(ProfCategory c) noexcept;
  void end() noexcept;
  void add_events(ProfCategory c, std::uint64_t n) noexcept {
    stats_[static_cast<std::size_t>(c)].events += n;
  }
  /// Allocation hook, called by the counting operator new replacement in
  /// profiler.cpp and by sim::make_zeroed_array (calloc). Attributes to the
  /// innermost open scope's category (kOther when no scope is open). Must
  /// never allocate.
  void note_alloc(std::size_t bytes) noexcept;

  const ProfCategoryStats& stats(ProfCategory c) const noexcept {
    return stats_[static_cast<std::size_t>(c)];
  }
  /// Wall nanoseconds spent inside root (non-nested) scopes.
  std::uint64_t total_scoped_ns() const noexcept { return total_ns_; }
  std::size_t open_scopes() const noexcept { return stack_.size(); }

  /// Human-readable per-category table (calls, wall-ms, events/sec, allocs).
  std::string table() const;
  /// Rows for bench::write_flat_json: prof.<category>.{calls,excl_ms,
  /// events,events_per_sec} for every category with calls or events.
  std::vector<std::pair<std::string, double>> flat_metrics() const;
  /// Collapsed-stack format ("a;b;c <exclusive-ns>" per line), loadable by
  /// speedscope and the classic flamegraph.pl toolchain. Stacks are emitted
  /// in first-seen order, so structure (not timing) is deterministic.
  std::string collapsed() const;

 private:
  /// Node in the scope-path tree behind collapsed(); children chained in
  /// creation order so the export order is reproducible.
  struct Node {
    ProfCategory cat{};
    std::int32_t parent = -1;
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    std::uint64_t excl_ns = 0;
    std::uint64_t calls = 0;
  };
  struct Frame {
    ProfCategory cat{};
    std::int32_t node = -1;
    std::uint64_t t0 = 0;
    std::uint64_t child_ns = 0;
  };

  std::int32_t child_of(std::int32_t parent, ProfCategory c);

  static Profiler* active_;

  ProfCategoryStats stats_[static_cast<std::size_t>(ProfCategory::kCount)];
  std::vector<Node> nodes_;
  std::vector<Frame> stack_;
  std::int32_t first_root_ = -1;
  std::uint64_t total_ns_ = 0;
};

#if defined(VMIG_PROFILER_DISABLED)

class ProfScope {
 public:
  explicit ProfScope(ProfCategory) noexcept {}
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
};

inline void prof_count(ProfCategory, std::uint64_t = 1) noexcept {}

#else

/// RAII scoped timer. Reads the active-profiler pointer once; when no
/// profiler is active the constructor and destructor are a branch each.
class ProfScope {
 public:
  explicit ProfScope(ProfCategory c) noexcept : p_{Profiler::active()} {
    if (p_ != nullptr) p_->begin(c);
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->end();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
};

/// Count `n` units of work against category `c` (events dispatched, blocks
/// scanned, ...). Rate = events / inclusive seconds in the reports.
inline void prof_count(ProfCategory c, std::uint64_t n = 1) noexcept {
  if (Profiler* p = Profiler::active(); p != nullptr) p->add_events(c, n);
}

#endif  // VMIG_PROFILER_DISABLED

/// Wall-clock stopwatch for benchmarks (bench_scale). Lives here so the
/// penned wall-clock access in profiler.cpp stays the only one in the tree.
class WallStopwatch {
 public:
  WallStopwatch();
  void reset();
  std::uint64_t elapsed_ns() const;
  double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  std::uint64_t t0_ = 0;
};

}  // namespace vmig::obs

// Micro-benchmarks for the paper's core data structure: flat vs layered vs
// 3-level block-bitmap, §IV-A-2, measured through the DirtyBitmap facade
// exactly as the migration engine uses it. Covers the write-tracking hot
// path (mark), the per-iteration scan (for_each_set / run cursor) on
// sparse/clustered/dense dirt, and prints the memory/wire-size table behind
// the paper's "1 MB per 32 GB at 4 KB blocks vs 8 MB at sectors" argument.
//
// Usage: bench_bitmap_micro [--quick] [--json FILE]
//   --quick      smaller rep counts (CI smoke; committed baseline
//                bench/baselines/BENCH_bitmap_micro.json holds this set)
//   --json FILE  flat metrics JSON for the baseline gate
//
// Hand-rolled harness (no google-benchmark): fixed op counts, best-of-R
// wall-clock timing via obs::WallStopwatch, ops/sec reported. Gated metrics
// are the 3-level numbers plus the flat kind's fully-set run-cursor sweep:
// MigrationConfig defaults to the layered kind, but both testbeds' paper
// configs use flat, and the fully-set sweep in 256-block chunks is exactly
// their pre-copy first pass.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/dirty_bitmap.hpp"
#include "obs/profiler.hpp"
#include "simcore/rng.hpp"

namespace {

using vmig::core::BitmapKind;
using vmig::core::DirtyBitmap;
using vmig::core::SetRunCursor;

// A 40 GiB disk at 4 KiB blocks.
constexpr std::uint64_t kBits = 10ull * 1024 * 1024;

bool g_quick = false;
volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

/// Best-of-R wall-clock rate: run `body(ops)` R times, return max ops/sec.
template <typename F>
double best_rate(std::uint64_t ops, F&& body) {
  const int reps = g_quick ? 2 : 3;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    vmig::obs::WallStopwatch sw;
    body(ops);
    const double s = static_cast<double>(sw.elapsed_ns()) / 1e9;
    if (s > 0.0) best = std::max(best, static_cast<double>(ops) / s);
  }
  return best;
}

DirtyBitmap make(BitmapKind k, bool set = false) { return DirtyBitmap{k, kBits, set}; }

void fill_pattern(DirtyBitmap& bm, const char* pattern, vmig::sim::Rng& rng) {
  if (std::strcmp(pattern, "sparse") == 0) {
    for (int i = 0; i < 1000; ++i) bm.set(rng.uniform_u64(kBits));
  } else if (std::strcmp(pattern, "clustered") == 0) {
    for (int i = 0; i < 10; ++i) {
      bm.set_range(rng.uniform_u64(kBits - 20000), 10000);
    }
  } else {  // dense
    bm.set_range(0, kBits);
  }
}

// ---- mark: the write-tracking hot path --------------------------------

double mark_uniform(BitmapKind k) {
  DirtyBitmap bm = make(k);
  return best_rate(g_quick ? 2'000'000 : 8'000'000, [&](std::uint64_t ops) {
    vmig::sim::Rng rng{1};
    for (std::uint64_t i = 0; i < ops; ++i) bm.set(rng.uniform_u64(kBits));
  });
}

double mark_local(BitmapKind k) {
  // The realistic tracking pattern: hot 1% of the disk.
  DirtyBitmap bm = make(k);
  return best_rate(g_quick ? 2'000'000 : 8'000'000, [&](std::uint64_t ops) {
    vmig::sim::Rng rng{1};
    for (std::uint64_t i = 0; i < ops; ++i) bm.set(rng.uniform_u64(kBits / 100));
  });
}

// ---- scan: the per-iteration reader sweep -----------------------------

/// Full for_each_set sweeps per second over a fixed dirt pattern.
double scan_sweeps(BitmapKind k, const char* pattern, std::uint64_t sweeps) {
  DirtyBitmap bm = make(k);
  vmig::sim::Rng rng{2};
  fill_pattern(bm, pattern, rng);
  return best_rate(sweeps, [&](std::uint64_t ops) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      bm.for_each_set([&](std::uint64_t b) { sum += b; });
    }
    g_sink = g_sink + sum;
  });
}

/// Set-bits visited per second on a dense bitmap (word-at-a-time floor).
double scan_dense_bits(BitmapKind k) {
  DirtyBitmap bm = make(k, /*set=*/true);
  const std::uint64_t sweeps = g_quick ? 4 : 16;
  return best_rate(sweeps * kBits, [&](std::uint64_t) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < sweeps; ++i) {
      bm.for_each_set([&](std::uint64_t b) { sum += b; });
    }
    g_sink = g_sink + sum;
  });
}

/// SetRunCursor sweeps per second over clustered dirt (the pre-copy reader
/// loop shape: chunked runs, no per-bit callback).
double run_cursor_sweeps(BitmapKind k, std::uint64_t sweeps) {
  DirtyBitmap bm = make(k);
  vmig::sim::Rng rng{3};
  fill_pattern(bm, "clustered", rng);
  return best_rate(sweeps, [&](std::uint64_t ops) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      SetRunCursor cur{bm};
      while (const auto run = cur.next(128)) sum += run->len;
    }
    g_sink = g_sink + sum;
  });
}

/// SetRunCursor sweeps per second over a fully-set bitmap in 256-block
/// chunks: the pre-copy first pass, where every chunk's run scan must stop
/// at its own chunk end rather than at the end of the disk.
double run_cursor_dense_sweeps(BitmapKind k) {
  const DirtyBitmap bm = make(k, /*set=*/true);
  return best_rate(g_quick ? 20 : 100, [&](std::uint64_t ops) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      SetRunCursor cur{bm};
      while (const auto run = cur.next(256)) sum += run->len;
    }
    g_sink = g_sink + sum;
  });
}

/// next_set probes per second over sparse dirt.
double next_set_probes(BitmapKind k) {
  DirtyBitmap bm = make(k);
  vmig::sim::Rng rng{3};
  fill_pattern(bm, "sparse", rng);
  return best_rate(g_quick ? 200'000 : 1'000'000, [&](std::uint64_t ops) {
    std::uint64_t from = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto n = bm.next_set(from);
      from = n.has_value() ? *n + 1 : 0;
    }
    g_sink = g_sink + from;
  });
}

/// Per-iteration blkd operation: snapshot the bitmap and clear it.
double snapshot_and_reset(BitmapKind k) {
  DirtyBitmap bm = make(k);
  const std::uint64_t iters = g_quick ? 500 : 2000;
  return best_rate(iters, [&](std::uint64_t ops) {
    vmig::sim::Rng rng{4};
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      fill_pattern(bm, "clustered", rng);
      DirtyBitmap snap = bm.take_and_reset();
      sum += snap.count_set();
    }
    g_sink = g_sink + sum;
  });
}

void print_memory_table() {
  std::printf("\n§IV-A-2 bitmap cost table (32 GiB disk)\n");
  std::printf("%-28s %14s %14s\n", "configuration", "bytes", "wire bytes");
  const std::uint64_t disk = 32ull * 1024 * 1024 * 1024;
  const auto row = [](const char* name, const DirtyBitmap& b, const char* note) {
    std::printf("%-28s %14llu %14llu   %s\n", name,
                static_cast<unsigned long long>(b.bytes()),
                static_cast<unsigned long long>(b.wire_bytes()), note);
  };
  row("flat, 4 KiB blocks", DirtyBitmap{BitmapKind::kFlat, disk / 4096},
      "(paper: 1 MB)");
  row("flat, 512 B sectors", DirtyBitmap{BitmapKind::kFlat, disk / 512},
      "(paper: 8 MB)");
  {
    DirtyBitmap b{BitmapKind::kLayered, disk / 4096};
    vmig::sim::Rng rng{5};
    for (int i = 0; i < 1000; ++i) b.set(rng.uniform_u64(32768) + 100000);
    row("layered, 4 KiB blocks", b, "(sparse dirt: 1 hot region)");
  }
  {
    DirtyBitmap b{BitmapKind::kThreeLevel, disk / 4096};
    vmig::sim::Rng rng{5};
    for (int i = 0; i < 1000; ++i) b.set(rng.uniform_u64(32768) + 100000);
    row("3level, 4 KiB blocks", b, "(sparse dirt: 1 hot region)");
  }
}

struct Row {
  const char* metric;
  double flat;
  double layered;
  double three;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a{argv[i]};
    if (a == "--quick") {
      g_quick = true;
    } else if (a == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json FILE]\n", argv[0]);
      return 2;
    }
  }

  vmig::bench::header("bitmap micro",
                      "§IV-A-2 block-bitmap costs through DirtyBitmap");
  print_memory_table();

  const std::uint64_t sparse_sweeps = g_quick ? 2'000 : 10'000;
  const std::uint64_t clustered_sweeps = g_quick ? 200 : 1'000;

  const auto all = [&](double (*f)(BitmapKind)) {
    return Row{"", f(BitmapKind::kFlat), f(BitmapKind::kLayered),
               f(BitmapKind::kThreeLevel)};
  };
  std::vector<Row> rows;
  rows.push_back(all(mark_uniform));
  rows.back().metric = "mark uniform (ops/s)";
  rows.push_back(all(mark_local));
  rows.back().metric = "mark hot-1% (ops/s)";
  rows.push_back({"scan sparse (sweeps/s)",
                  scan_sweeps(BitmapKind::kFlat, "sparse", sparse_sweeps),
                  scan_sweeps(BitmapKind::kLayered, "sparse", sparse_sweeps),
                  scan_sweeps(BitmapKind::kThreeLevel, "sparse", sparse_sweeps)});
  rows.push_back({"scan clustered (sweeps/s)",
                  scan_sweeps(BitmapKind::kFlat, "clustered", clustered_sweeps),
                  scan_sweeps(BitmapKind::kLayered, "clustered", clustered_sweeps),
                  scan_sweeps(BitmapKind::kThreeLevel, "clustered", clustered_sweeps)});
  rows.push_back(all(scan_dense_bits));
  rows.back().metric = "scan dense (bits/s)";
  rows.push_back({"run cursor clustered (sweeps/s)",
                  run_cursor_sweeps(BitmapKind::kFlat, clustered_sweeps),
                  run_cursor_sweeps(BitmapKind::kLayered, clustered_sweeps),
                  run_cursor_sweeps(BitmapKind::kThreeLevel, clustered_sweeps)});
  rows.push_back(all(run_cursor_dense_sweeps));
  rows.back().metric = "run cursor dense c256 (sweeps/s)";
  rows.push_back(all(next_set_probes));
  rows.back().metric = "next_set sparse (probes/s)";
  rows.push_back(all(snapshot_and_reset));
  rows.back().metric = "snapshot+reset (iters/s)";

  vmig::bench::section("throughput (best of repeated runs)");
  std::printf("  %-32s %14s %14s %14s\n", "metric", "flat", "layered", "3level");
  for (const auto& r : rows) {
    std::printf("  %-32s %14.0f %14.0f %14.0f\n", r.metric, r.flat, r.layered,
                r.three);
  }

  if (!json_out.empty()) {
    // Gate the 3-level numbers (the hierarchy's word-cursor scans) and the
    // flat first-pass sweep (what both testbeds' paper configs run).
    std::vector<std::pair<std::string, double>> kv;
    kv.emplace_back("bitmap.3level.mark_uniform_ops_per_sec", rows[0].three);
    kv.emplace_back("bitmap.3level.mark_local_ops_per_sec", rows[1].three);
    kv.emplace_back("bitmap.3level.scan_sparse_sweeps_per_sec", rows[2].three);
    kv.emplace_back("bitmap.3level.scan_clustered_sweeps_per_sec", rows[3].three);
    kv.emplace_back("bitmap.3level.scan_dense_bits_per_sec", rows[4].three);
    kv.emplace_back("bitmap.3level.run_cursor_sweeps_per_sec", rows[5].three);
    kv.emplace_back("bitmap.flat.run_cursor_dense_sweeps_per_sec", rows[6].flat);
    kv.emplace_back("bitmap.3level.next_set_probes_per_sec", rows[7].three);
    if (!vmig::bench::write_flat_json(json_out.c_str(), kv)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 2;
    }
    std::printf("  metrics -> %s\n", json_out.c_str());
  }
  return 0;
}

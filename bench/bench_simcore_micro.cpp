// Micro-benchmarks for the simulation kernel itself: raw event throughput
// through the calendar queue, coroutine spawn/await cost (pooled frames),
// and channel handoff. These bound how large an experiment the simulator
// can run per wall-second (the paper-scale Table I run is ~400k events,
// mostly milliseconds apart — the 4 ms timer chain is that shape).
//
// Usage: bench_simcore_micro [--quick] [--json FILE]
//   --quick      smaller rep counts (CI smoke; committed baseline
//                bench/baselines/BENCH_simcore_micro.json holds this set)
//   --json FILE  flat metrics JSON for the baseline gate
//
// Hand-rolled harness (no google-benchmark): fixed op counts, best-of-R
// wall-clock timing via obs::WallStopwatch, ops/sec reported.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/profiler.hpp"
#include "simcore/channel.hpp"
#include "simcore/notifier.hpp"
#include "simcore/simulator.hpp"

namespace {

using namespace vmig::sim;
using namespace vmig::sim::literals;

bool g_quick = false;
volatile std::uint64_t g_sink = 0;

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

double schedule_and_fire() {
  Simulator sim;
  return best_rate(g_quick ? 1'000'000 : 4'000'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      sim.schedule_after(1_us, [] {});
      sim.run();
    }
  });
}

double queue_depth_1000() {
  // Sustained throughput with a deep queue: 1000 timers across ~97µs of
  // simulated time, drained in (time, seq) order.
  Simulator sim;
  const std::uint64_t batches = g_quick ? 1'000 : 4'000;
  return best_rate(batches * 1000, [&](std::uint64_t) {
    for (std::uint64_t b = 0; b < batches; ++b) {
      for (int i = 0; i < 1000; ++i) {
        sim.schedule_after(Duration::micros(i % 97), [] {});
      }
      sim.run();
    }
  });
}

double far_future_timers() {
  // Timers a simulated minute out land in the calendar's overflow list and
  // must still drain in order.
  Simulator sim;
  const std::uint64_t batches = g_quick ? 50 : 200;
  return best_rate(batches * 1000, [&](std::uint64_t) {
    for (std::uint64_t b = 0; b < batches; ++b) {
      for (int i = 0; i < 1000; ++i) {
        sim.schedule_after(Duration::seconds(60) + Duration::micros(i % 97),
                           [] {});
      }
      sim.run();
    }
  });
}

/// A timer chain with one event every `spacing`: each firing arms the next.
/// Returns the simulator's calendar probes for the chain.
std::uint64_t run_chain(Simulator& sim, Duration spacing, std::uint64_t n) {
  const std::uint64_t probes0 = sim.calendar_probes();
  std::uint64_t left = n;
  std::function<void()> hop = [&] {
    if (--left > 0) sim.schedule_after(spacing, hop);
  };
  sim.schedule_after(spacing, hop);
  sim.run();
  return sim.calendar_probes() - probes0;
}

double chain_4ms() {
  // Events 4 ms apart — the paper disk's service time, ~488 empty calendar
  // days between consecutive events. Every other case here schedules at
  // most ~97 us ahead, which hides the cost of crossing empty days.
  Simulator sim;
  return best_rate(g_quick ? 200'000 : 1'000'000, [&](std::uint64_t ops) {
    run_chain(sim, 4_ms, ops);
  });
}

double cancelled_timers() {
  // Lazy-deletion cost: schedule + cancel without firing.
  Simulator sim;
  return best_rate(g_quick ? 1'000'000 : 4'000'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto id = sim.schedule_after(1_s, [] {});
      sim.cancel(id);
    }
    sim.run();
  });
}

Task<void> hop(Simulator& s, int n) {
  for (int i = 0; i < n; ++i) co_await s.delay(1_us);
}

double delay_hops() {
  Simulator sim;
  const std::uint64_t spawns = g_quick ? 10'000 : 40'000;
  return best_rate(spawns * 100, [&](std::uint64_t) {
    for (std::uint64_t i = 0; i < spawns; ++i) {
      sim.spawn(hop(sim, 100));
      sim.run();
    }
  });
}

Task<int> leaf() { co_return 1; }
Task<int> chain(int depth) {
  if (depth == 0) co_return co_await leaf();
  co_return co_await chain(depth - 1);
}

double nested_await_32() {
  Simulator sim;
  const std::uint64_t spawns = g_quick ? 30'000 : 120'000;
  return best_rate(spawns * 32, [&](std::uint64_t) {
    int sum = 0;
    for (std::uint64_t i = 0; i < spawns; ++i) {
      sim.spawn([](int& s) -> Task<void> { s += co_await chain(32); }(sum));
      sim.run();
    }
    g_sink = g_sink + static_cast<std::uint64_t>(sum);
  });
}

double channel_handoff() {
  // One item through a capacity-1 channel: send + notify + recv.
  Simulator sim;
  Channel<int> ch{sim, 1};
  return best_rate(g_quick ? 100'000 : 400'000, [&](std::uint64_t ops) {
    std::size_t items = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      sim.spawn([](Channel<int>& c) -> Task<void> { co_await c.send(1); }(ch));
      sim.spawn([](Channel<int>& c, std::size_t& n) -> Task<void> {
        const auto v = co_await c.recv();
        n += v.has_value();
      }(ch, items));
      sim.run();
    }
    g_sink = g_sink + items;
  });
}

double notifier_wake() {
  Simulator sim;
  Notifier n{sim};
  return best_rate(g_quick ? 200'000 : 800'000, [&](std::uint64_t ops) {
    std::size_t wakes = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      sim.spawn([](Notifier& nn, std::size_t& w) -> Task<void> {
        co_await nn.wait();
        ++w;
      }(n, wakes));
      sim.run();
      n.notify_all();
      sim.run();
    }
    g_sink = g_sink + wakes;
  });
}

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

  vmig::bench::header("simcore micro",
                      "event-queue and coroutine kernel throughput");

  struct Row {
    const char* metric;
    const char* key;
    double ops;
  };
  std::vector<Row> rows;
  rows.push_back({"schedule+fire (ops/s)", "schedule_fire_ops_per_sec",
                  schedule_and_fire()});
  rows.push_back({"queue depth 1000 (ops/s)", "depth1000_ops_per_sec",
                  queue_depth_1000()});
  rows.push_back({"far-future timers (ops/s)", "far_future_ops_per_sec",
                  far_future_timers()});
  rows.push_back({"timer chain 4 ms apart (ops/s)", "chain_4ms_ops_per_sec",
                  chain_4ms()});
  rows.push_back({"schedule+cancel (ops/s)", "cancel_ops_per_sec",
                  cancelled_timers()});
  rows.push_back({"coroutine delay hops (ops/s)", "delay_hops_ops_per_sec",
                  delay_hops()});
  rows.push_back({"nested await depth 32 (ops/s)", "nested_await_ops_per_sec",
                  nested_await_32()});
  rows.push_back({"channel handoff (ops/s)", "channel_handoff_ops_per_sec",
                  channel_handoff()});
  rows.push_back({"notifier wake (ops/s)", "notifier_wake_ops_per_sec",
                  notifier_wake()});

  vmig::bench::section("throughput (best of repeated runs)");
  for (const auto& r : rows) {
    std::printf("  %-32s %14.0f\n", r.metric, r.ops);
  }
  // Deterministic work behind the 4 ms chain: calendar probes for a fixed
  // 10k-event chain (independent of --quick, so it is gated exactly).
  std::uint64_t chain_probes = 0;
  {
    Simulator sim;
    chain_probes = run_chain(sim, 4_ms, 10'000);
  }
  std::printf("  %-32s %14llu\n", "4 ms chain probes (10k events)",
              static_cast<unsigned long long>(chain_probes));

  if (!json_out.empty()) {
    std::vector<std::pair<std::string, double>> kv;
    for (const auto& r : rows) {
      kv.emplace_back(std::string{"simcore."} + r.key, r.ops);
    }
    kv.emplace_back("simcore.chain_4ms_calendar_probes",
                    static_cast<double>(chain_probes));
    if (!vmig::bench::write_flat_json(json_out.c_str(), kv)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 2;
    }
    std::printf("  metrics -> %s\n", json_out.c_str());
  }
  return 0;
}

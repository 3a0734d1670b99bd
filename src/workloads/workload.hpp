#pragma once

#include <string>

#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/stats.hpp"
#include "simcore/task.hpp"
#include "trace/io_trace.hpp"
#include "vm/domain.hpp"

namespace vmig::workload {

/// Base class for guest workload drivers.
///
/// A workload is a coroutine that exercises the domain's disk and memory the
/// way a real application would, and reports *application-level* throughput
/// (the client-visible metric from the paper's Figs. 5 and 6). Workloads are
/// oblivious to migration: the domain's barrier stalls them during the
/// freeze phase, post-copy interception delays their reads, and disk
/// contention slows them — exactly the effects under evaluation.
class Workload {
 public:
  Workload(sim::Simulator& sim, vm::Domain& domain, std::uint64_t seed);
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual std::string name() const = 0;

  /// Spawn the driver coroutine.
  void start();
  /// Ask the driver to wind down at its next checkpoint.
  void request_stop() { stop_ = true; }
  bool stop_requested() const { return stop_; }
  bool finished() const { return handle_.valid() && handle_.done(); }
  sim::SpawnHandle handle() const { return handle_; }

  /// Client-visible throughput (bytes/second, windowed).
  const sim::RateMeter& throughput() const noexcept { return meter_; }
  /// Close the current throughput window (end of experiment).
  void finish_metrics() { meter_.finish(sim_.now()); }

  /// Record every disk I/O this workload issues (locality analysis).
  void attach_trace(trace::IoTrace* t) { trace_ = t; }

 protected:
  /// The driver body; loops until stop_requested().
  virtual sim::Task<void> run() = 0;

  // ---- Helpers for subclasses ----

  /// Guest disk read/write via the domain (traced when a trace is attached).
  /// The request is made by the call; `co_await` it right away.
  vm::GuestIo read_blocks(storage::BlockRange r);
  vm::GuestIo write_blocks(storage::BlockRange r);

  /// Account application payload serviced to clients.
  void account(double bytes) { meter_.add(sim_.now(), bytes); }

  /// Dirty `n` random guest pages (application state churn).
  void touch_pages(int n);

  std::uint64_t disk_blocks() const;

  sim::Simulator& sim_;
  vm::Domain& domain_;
  sim::Rng rng_;

 private:
  sim::RateMeter meter_;
  trace::IoTrace* trace_ = nullptr;
  bool stop_ = false;
  sim::SpawnHandle handle_;
};

}  // namespace vmig::workload

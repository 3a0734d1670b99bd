#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>

#include "simcore/simulator.hpp"
#include "simcore/stats.hpp"
#include "storage/block.hpp"
#include "storage/disk_model.hpp"

namespace vmig::storage {

/// Per-source accounting bucket for disk traffic.
enum class IoSource : std::uint8_t { kGuest = 0, kMigration = 1, kOther = 2 };
inline constexpr int kIoSourceCount = 3;

class DiskScheduler;

/// Completion awaiter of one disk request (`DiskScheduler::execute`): the
/// request is queued when the awaiter is made, awaiting arms the completion
/// timer, and resuming settles the queue depth and latency. Await it where
/// it is made (an unawaited request stays in the queue depth); destroying
/// the awaiting frame cancels the timer. Only an unarmed DiskIo may move.
class [[nodiscard]] DiskIo {
 public:
  DiskIo() = default;
  DiskIo(DiskIo&& o) noexcept : disk_{o.disk_}, wait_{o.wait_} {
    assert(o.timer_ == 0);
  }
  DiskIo& operator=(DiskIo&& o) noexcept {
    assert(timer_ == 0 && o.timer_ == 0);
    disk_ = o.disk_;
    wait_ = o.wait_;
    return *this;
  }
  ~DiskIo();

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() noexcept;

 private:
  friend class DiskScheduler;
  DiskIo(DiskScheduler& disk, sim::Duration wait) : disk_{&disk}, wait_{wait} {}

  DiskScheduler* disk_ = nullptr;
  sim::Duration wait_{};  ///< arrival to completion (queueing + service)
  sim::Simulator::TimerId timer_ = 0;  ///< armed and not yet fired
};

/// FIFO single-server queue in front of a simulated disk.
///
/// All traffic to one physical disk — guest I/O and migration reads/writes —
/// funnels through one scheduler, so contention emerges naturally: a
/// migration stream saturating the disk halves the throughput an I/O-bound
/// guest sees (the paper's Fig. 6 effect).
class DiskScheduler {
 public:
  DiskScheduler(sim::Simulator& sim, DiskModel model)
      : sim_{sim}, model_{model} {}

  DiskScheduler(const DiskScheduler&) = delete;
  DiskScheduler& operator=(const DiskScheduler&) = delete;

  /// Queue a timed I/O now (head position, busy time, bytes, request
  /// count, queue depth); awaiting the result resumes the caller when the
  /// disk completes it.
  DiskIo execute(IoOp op, BlockRange range, std::uint32_t block_size,
                 IoSource source);

  /// Service time the next request would see (no queueing), for planning.
  sim::Duration estimate(IoOp op, BlockRange range, std::uint32_t block_size) const {
    return model_.service_time(op, range, head_pos_, block_size);
  }

  const DiskModel& model() const noexcept { return model_; }

  std::uint64_t bytes_transferred(IoSource s) const {
    return bytes_[static_cast<int>(s)];
  }
  std::uint64_t requests_completed() const noexcept { return requests_; }
  /// Total time the disk spent servicing requests.
  sim::Duration busy_time() const noexcept { return busy_time_; }
  /// Utilization in [0,1] over the simulated interval [0, now].
  double utilization() const;
  std::uint32_t queue_depth() const noexcept { return queue_depth_; }
  const sim::LatencyHistogram& latency() const noexcept { return latency_; }

 private:
  friend class DiskIo;

  sim::Simulator& sim_;
  DiskModel model_;
  sim::TimePoint busy_until_{};
  BlockId head_pos_ = 0;
  std::uint64_t bytes_[kIoSourceCount] = {};
  std::uint64_t requests_ = 0;
  sim::Duration busy_time_{};
  std::uint32_t queue_depth_ = 0;
  sim::LatencyHistogram latency_;
};

}  // namespace vmig::storage

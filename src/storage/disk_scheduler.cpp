#include "storage/disk_scheduler.hpp"

#include <algorithm>

namespace vmig::storage {

DiskIo::~DiskIo() {
  if (timer_ != 0) disk_->sim_.cancel(timer_);
}

void DiskIo::await_suspend(std::coroutine_handle<> h) {
  assert(disk_ != nullptr);
  timer_ = disk_->sim_.schedule_after(wait_, [h] { h.resume(); });
}

void DiskIo::await_resume() noexcept {
  timer_ = 0;
  --disk_->queue_depth_;
  disk_->latency_.add(wait_);
}

DiskIo DiskScheduler::execute(IoOp op, BlockRange range, std::uint32_t block_size,
                              IoSource source) {
  const sim::TimePoint arrival = sim_.now();
  const sim::TimePoint start = std::max(arrival, busy_until_);
  // Head position at dispatch time is wherever the previous request left it.
  const sim::Duration service = model_.service_time(op, range, head_pos_, block_size);
  const sim::TimePoint completion = start + service;

  busy_until_ = completion;
  head_pos_ = range.end();
  busy_time_ += service;
  bytes_[static_cast<int>(source)] += range.bytes(block_size);
  ++requests_;
  ++queue_depth_;
  return DiskIo{*this, completion - arrival};
}

double DiskScheduler::utilization() const {
  const auto elapsed = sim_.now() - sim::TimePoint::origin();
  if (elapsed <= sim::Duration::zero()) return 0.0;
  return std::min(1.0, busy_time_ / elapsed);
}

}  // namespace vmig::storage

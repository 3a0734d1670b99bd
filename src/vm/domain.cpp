#include "vm/domain.hpp"

namespace vmig::vm {

void Domain::suspend() {
  if (state_ == State::kSuspended) return;
  state_ = State::kSuspended;
  suspended_at_ = sim_.now();
  if (state_hook_) state_hook_(false);
}

void Domain::resume() {
  if (state_ == State::kRunning) return;
  state_ = State::kRunning;
  suspended_total_ += sim_.now() - suspended_at_;
  cpu_.touch();  // context restore
  if (state_hook_) state_hook_(true);
  resume_notifier_.notify_all();
}

sim::Duration Domain::total_suspended_time() const {
  sim::Duration t = suspended_total_;
  if (state_ == State::kSuspended) t += sim_.now() - suspended_at_;
  return t;
}

sim::Task<void> Domain::wait_for_resume() {
  while (state_ == State::kSuspended) {
    co_await resume_notifier_.wait();
  }
}

GuestIo Domain::request(storage::IoOp op, storage::BlockRange range,
                        std::span<const std::byte> bytes) {
  if (state_ == State::kSuspended) {
    return GuestIo{request_after_resume(op, range, bytes)};
  }
  if (!bytes.empty()) return frontend_.submit_write_bytes(range, bytes);
  return frontend_.submit(op, range);
}

sim::Task<void> Domain::request_after_resume(storage::IoOp op,
                                             storage::BlockRange range,
                                             std::span<const std::byte> bytes) {
  co_await wait_for_resume();
  co_await request(op, range, bytes);
}

}  // namespace vmig::vm

#include "vm/blk_backend.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace vmig::vm {

GuestIo::GuestIo(BlkBackend& be, DomainId domain, storage::IoOp op,
                 storage::BlockRange range, std::span<const std::byte> bytes)
    : be_{&be}, domain_{domain}, op_{op}, range_{range}, bytes_{bytes} {
  if (op == storage::IoOp::kWrite && be.mark_write(domain, range) &&
      be.tracking_overhead_ > sim::Duration::zero()) {
    overhead_ = be.tracking_overhead_;  // hand-off when the overhead is paid
    return;
  }
  disk_ = be.hand_off(op, range, bytes);
}

GuestIo::~GuestIo() {
  if (overhead_timer_ != 0) be_->sim_.cancel(overhead_timer_);
}

std::coroutine_handle<> GuestIo::await_suspend(std::coroutine_handle<> h) {
  if (deferred_.valid()) {
    return std::move(deferred_).operator co_await().await_suspend(h);
  }
  if (overhead_ > sim::Duration::zero()) {
    overhead_timer_ = be_->sim_.schedule_after(overhead_, [this, h] {
      overhead_timer_ = 0;
      disk_ = be_->hand_off(op_, range_, bytes_);
      disk_.await_suspend(h);
    });
  } else {
    disk_.await_suspend(h);
  }
  return std::noop_coroutine();
}

void GuestIo::await_resume() {
  if (deferred_.valid()) {
    std::move(deferred_).operator co_await().await_resume();
    return;
  }
  disk_.await_resume();
  // The write observer is looked up at completion, like the write itself.
  if (op_ == storage::IoOp::kWrite && be_->write_observer_ &&
      domain_ == be_->served_) {
    be_->write_observer_(range_);
  }
}

GuestIo BlkBackend::request(DomainId domain, storage::IoOp op,
                            storage::BlockRange range,
                            std::span<const std::byte> bytes) {
  // Post-copy interception gets first crack: it may hold the request until
  // the accessed blocks are synchronized (paper §IV-A-3 destination rules).
  if (interceptor_ != nullptr) {
    return GuestIo{intercepted(domain, op, range, bytes)};
  }
  return GuestIo{*this, domain, op, range, bytes};
}

sim::Task<void> BlkBackend::intercepted(DomainId domain, storage::IoOp op,
                                        storage::BlockRange range,
                                        std::span<const std::byte> bytes) {
  co_await interceptor_->on_request(domain, op, range);
  co_await GuestIo{*this, domain, op, range, bytes};
}

bool BlkBackend::mark_write(DomainId domain, storage::BlockRange range) {
  if (!tracking_ || domain != served_) return false;
  // vmig-lint: hot-begin -- dirty-mark on the guest write fast path
  {
    // The paper's blkback splits the written area into 4 KB blocks and
    // sets the corresponding bits.
    obs::ProfScope prof{obs::ProfCategory::kBitmapMark};
    obs::prof_count(obs::ProfCategory::kBitmapMark, range.count);
    dirty_.set_range(range.start, range.count);
    marks_total_ += range.count;
  }
  // vmig-lint: hot-end
  if (obs_dirty_marks_ != nullptr) obs_dirty_marks_->add(range.count);
  if (redirty_hook_) redirty_hook_(range);
  return true;
}

void BlkBackend::count_write(storage::BlockRange range) {
  ++writes_;
  write_bytes_ += range.bytes(disk_.geometry().block_size);
  if (obs_write_ops_ != nullptr) {
    obs_write_ops_->add(1.0);
    obs_write_bytes_->add(
        static_cast<double>(range.bytes(disk_.geometry().block_size)));
  }
}

storage::DiskIo BlkBackend::hand_off(storage::IoOp op, storage::BlockRange range,
                                     std::span<const std::byte> bytes) {
  if (op == storage::IoOp::kWrite) {
    count_write(range);
    return bytes.empty() ? disk_.write(range, storage::IoSource::kGuest)
                         : disk_.write_bytes(range, bytes, storage::IoSource::kGuest);
  }
  ++reads_;
  read_bytes_ += range.bytes(disk_.geometry().block_size);
  if (obs_read_ops_ != nullptr) {
    obs_read_ops_->add(1.0);
    obs_read_bytes_->add(
        static_cast<double>(range.bytes(disk_.geometry().block_size)));
  }
  return disk_.read(range, storage::IoSource::kGuest);
}

void BlkBackend::note_guest_write(storage::BlockRange range) {
  mark_write(served_, range);
  count_write(range);
  if (write_observer_) write_observer_(range);
}

void BlkBackend::note_guest_writes_bulk(const storage::BlockRange* ranges,
                                        std::size_t n_ranges,
                                        std::uint64_t writes,
                                        std::uint64_t blocks) {
  // Per-event consumers cannot be replayed in bulk; the DirtySource must
  // have switched to live ticking before one was installed.
  assert(!fidelity_required());
  if (tracking_) {
    obs::ProfScope prof{obs::ProfCategory::kBitmapMark};
    obs::prof_count(obs::ProfCategory::kBitmapMark, blocks);
    for (std::size_t i = 0; i < n_ranges; ++i) {
      dirty_.set_range(ranges[i].start, ranges[i].count);
    }
    marks_total_ += blocks;
    if (obs_dirty_marks_ != nullptr) {
      obs_dirty_marks_->add(static_cast<double>(blocks));
    }
  }
  writes_ += writes;
  const std::uint64_t bytes = blocks * disk_.geometry().block_size;
  write_bytes_ += bytes;
  if (obs_write_ops_ != nullptr) {
    obs_write_ops_->add(static_cast<double>(writes));
    obs_write_bytes_->add(static_cast<double>(bytes));
  }
}

void BlkBackend::start_write_tracking(core::BitmapKind kind) {
  // Settle first so modeled writes before this instant land in the *old*
  // bitmap (the ticked execution's tick events fire before same-time
  // control events — see docs/SCALE.md tie-break conventions).
  settle_source();
  dirty_ = core::DirtyBitmap{kind, disk_.geometry().block_count};
  marks_total_ = 0;
  tracking_ = true;
  if (dirty_source_ != nullptr) dirty_source_->on_tracking(true);
}

void BlkBackend::stop_write_tracking() {
  settle_source();
  tracking_ = false;
  if (dirty_source_ != nullptr) dirty_source_->on_tracking(false);
}

core::DirtyBitmap BlkBackend::snapshot_dirty_and_reset() {
  settle_source();
  return dirty_.take_and_reset();
}

void BlkBackend::snapshot_dirty_and_reset_into(core::DirtyBitmap& out) {
  settle_source();
  dirty_.take_and_reset_into(out);
}

core::DirtyBitmap BlkBackend::snapshot_dirty() const {
  settle_source();
  return dirty_;
}

void BlkBackend::attach_obs(obs::Registry& registry, const std::string& prefix) {
  obs_read_ops_ = &registry.counter(prefix + ".read_ops");
  obs_write_ops_ = &registry.counter(prefix + ".write_ops");
  obs_read_bytes_ = &registry.counter(prefix + ".read_bytes");
  obs_write_bytes_ = &registry.counter(prefix + ".write_bytes");
  obs_dirty_marks_ = &registry.counter(prefix + ".dirty_marks");
}

}  // namespace vmig::vm

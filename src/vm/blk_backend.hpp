#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "core/dirty_bitmap.hpp"
#include "simcore/simulator.hpp"
#include "simcore/task.hpp"
#include "storage/virtual_disk.hpp"
#include "vm/types.hpp"

namespace vmig::obs {
class Counter;
class Registry;
}  // namespace vmig::obs

namespace vmig::vm {

/// Hook a migration engine installs into the backend's request path.
///
/// The post-copy engine (paper §IV-A-3) uses this to hold guest reads of
/// not-yet-synchronized blocks until the block is pulled from the source,
/// and to flip bitmap state on guest writes. `on_request` completes when the
/// request may be submitted to the physical driver.
class IoInterceptor {
 public:
  virtual ~IoInterceptor() = default;
  virtual sim::Task<void> on_request(DomainId domain, storage::IoOp op,
                                     storage::BlockRange range) = 0;
};

class BlkBackend;

/// One guest block request in flight, as `BlkBackend::submit` returns it.
///
/// Each layer of the split driver does its bookkeeping when the request is
/// made; the caller then waits on one timer, the disk's completion. A
/// tracked write with a tracking overhead first waits out the overhead on a
/// timer whose handler hands the write to the disk. Requests that must wait
/// for an interceptor or for a suspended domain's resume run as a coroutine
/// that the awaiter starts. Await it where it is made; destroying the
/// awaiting frame cancels the pending timer. See docs/INTERNALS.md, "Guest
/// I/O path".
class [[nodiscard]] GuestIo {
 public:
  /// A request that runs as the coroutine `deferred`.
  explicit GuestIo(sim::Task<void> deferred) noexcept
      : deferred_{std::move(deferred)} {}
  GuestIo(const GuestIo&) = delete;
  GuestIo& operator=(const GuestIo&) = delete;
  ~GuestIo();

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  friend class BlkBackend;
  /// Submit to blkback now. `bytes` non-empty makes a payload write.
  GuestIo(BlkBackend& be, DomainId domain, storage::IoOp op,
          storage::BlockRange range, std::span<const std::byte> bytes);

  BlkBackend* be_ = nullptr;
  DomainId domain_ = 0;
  storage::IoOp op_ = storage::IoOp::kRead;
  storage::BlockRange range_{};
  std::span<const std::byte> bytes_;
  sim::Duration overhead_{};               ///< tracking cost still to wait
  sim::Simulator::TimerId overhead_timer_ = 0;  ///< armed and not yet fired
  storage::DiskIo disk_;
  sim::Task<void> deferred_;
};

/// A lazily-settled producer of dirty state (the fast-forward contract).
///
/// A fast-forward workload model (workloads::SteadyWriter) registers one of
/// these on the backend it writes through. While no per-event consumer needs
/// tick-by-tick fidelity, the source stays dormant — no simulator events at
/// all — and the backend calls `settle()` at every *observation point*
/// (bitmap snapshot/scan, mark-counter read, tracking transition) so the
/// source can advance its closed-form write model and apply the marks in
/// bulk. The invariant, pinned by A/B tests: the dirty bitmap and the
/// cumulative mark counter at every observation point are bit-identical to
/// the per-tick execution. See docs/SCALE.md.
class DirtySource {
 public:
  virtual ~DirtySource() = default;
  /// Bring the backend's dirty state up to date with simulated `now`.
  virtual void settle() = 0;
  /// Tracking started (true) / stopped (false) on the backend. Fired after
  /// the backend settled the old state and flipped the flag.
  virtual void on_tracking(bool on) = 0;
  /// A per-event consumer (interceptor, redirty hook, write observer) was
  /// installed or removed; the source must go live while one is present.
  virtual void on_fidelity_change() = 0;
};

/// The Domain0 half of the Xen split block driver (`blkback`).
///
/// Every I/O request a guest submits to its virtual block device passes
/// through here, which is exactly why the paper put dirty tracking at this
/// layer: when monitoring is on, each write's 4 KB blocks are marked in the
/// block-bitmap before hitting the disk. A configurable per-write tracking
/// cost models the overhead Table III measures (< 1 %).
class BlkBackend {
 public:
  BlkBackend(sim::Simulator& sim, storage::VirtualDisk& disk, DomainId served)
      : sim_{sim}, disk_{disk}, served_{served} {}

  BlkBackend(const BlkBackend&) = delete;
  BlkBackend& operator=(const BlkBackend&) = delete;

  storage::VirtualDisk& disk() noexcept { return disk_; }
  const storage::VirtualDisk& disk() const noexcept { return disk_; }
  DomainId served_domain() const noexcept { return served_; }
  /// Rebind which DomU this backend serves (set when a domain attaches).
  void set_served(DomainId d) noexcept { served_ = d; }

  /// Guest I/O entry point (what the frontend ring delivers).
  GuestIo submit(DomainId domain, storage::IoOp op, storage::BlockRange range) {
    return request(domain, op, range, {});
  }

  /// Guest write carrying real bytes (payload-backed disks). Same
  /// interception/tracking path as submit(); `bytes` must cover the range
  /// and outlive the request.
  GuestIo submit_write_bytes(DomainId domain, storage::BlockRange range,
                             std::span<const std::byte> bytes) {
    return request(domain, storage::IoOp::kWrite, range, bytes);
  }

  // ---- Modeled guest writes (dirty-rate models / fast-forward) ----

  /// One instantaneous modeled write from the served domain: marks the
  /// bitmap, fires the redirty hook and write observer, and accounts write
  /// stats — but performs no disk I/O and pays no interception or tracking
  /// delay. This is the per-tick primitive of blkback-level dirty-rate
  /// models (workloads::SteadyWriter); because both the ticked and the
  /// fast-forward execution use it, the two stay bit-identical.
  void note_guest_write(storage::BlockRange range);

  /// Bulk closed-form advancement: apply `writes` modeled writes covering
  /// `ranges` (their union, as maximal runs) and `blocks` total marked
  /// blocks. Only legal while no per-event consumer is installed
  /// (fidelity_required() is false) — per-event hooks cannot be replayed in
  /// bulk. Used by DirtySource::settle to fold an idle stretch of ticks
  /// into run-level bitmap marks.
  void note_guest_writes_bulk(const storage::BlockRange* ranges,
                              std::size_t n_ranges, std::uint64_t writes,
                              std::uint64_t blocks);

  /// True while a per-event consumer (post-copy interceptor, redirty hook,
  /// write observer, nonzero tracking overhead) needs tick-by-tick events;
  /// a DirtySource must run live instead of settling in bulk.
  bool fidelity_required() const noexcept {
    return interceptor_ != nullptr || static_cast<bool>(redirty_hook_) ||
           static_cast<bool>(write_observer_) ||
           tracking_overhead_ > sim::Duration::zero();
  }

  /// Register the (single) lazily-settled dirty source feeding this
  /// backend. The backend settles it at every observation point.
  void attach_dirty_source(DirtySource* s) noexcept { dirty_source_ = s; }
  void detach_dirty_source(DirtySource* s) noexcept {
    if (dirty_source_ == s) dirty_source_ = nullptr;
  }
  DirtySource* dirty_source() const noexcept { return dirty_source_; }

  // ---- Write tracking (the paper's blkback modification) ----

  /// Begin recording every write from the served domain into a fresh
  /// block-bitmap of the given kind.
  void start_write_tracking(core::BitmapKind kind);
  void stop_write_tracking();
  bool tracking() const noexcept { return tracking_; }

  /// Copy the bitmap out and reset it (blkd's per-iteration Proc read).
  core::DirtyBitmap snapshot_dirty_and_reset();
  /// Same, into a caller-owned reused buffer — allocation-free once `out`
  /// has the right shape (see DirtyBitmap::take_and_reset_into).
  void snapshot_dirty_and_reset_into(core::DirtyBitmap& out);
  /// Copy the bitmap out without resetting.
  core::DirtyBitmap snapshot_dirty() const;
  std::uint64_t dirty_block_count() const {
    settle_source();
    return tracking_ ? dirty_.count_set() : 0;
  }
  /// Cumulative blocks marked in the bitmap since tracking began — unlike
  /// dirty_block_count(), rewriting an already-dirty block still counts, so
  /// deltas of this value give the domain's true write (re-dirty) rate.
  /// Survives snapshot_dirty_and_reset(); reset by start_write_tracking().
  std::uint64_t dirty_marks_total() const {
    settle_source();
    return marks_total_;
  }

  /// CPU cost charged per tracked write (Table III overhead model).
  void set_tracking_overhead(sim::Duration d) {
    settle_source();
    tracking_overhead_ = d;
    notify_fidelity();
  }
  sim::Duration tracking_overhead() const noexcept { return tracking_overhead_; }

  // ---- Post-copy interception ----

  void install_interceptor(IoInterceptor* i) {
    settle_source();
    interceptor_ = i;
    notify_fidelity();
  }
  void remove_interceptor() {
    settle_source();
    interceptor_ = nullptr;
    notify_fidelity();
  }
  bool intercepting() const noexcept { return interceptor_ != nullptr; }

  /// Observer invoked after each served-domain write completes on disk —
  /// the tap a delta-forwarding scheme (Bradford et al., VEE'07) uses to
  /// capture the written data for forwarding.
  void set_write_observer(std::function<void(storage::BlockRange)> fn) {
    settle_source();
    write_observer_ = std::move(fn);
    notify_fidelity();
  }
  void clear_write_observer() {
    settle_source();
    write_observer_ = nullptr;
    notify_fidelity();
  }

  /// Hook invoked whenever a tracked write marks the dirty bitmap — the
  /// flight recorder's `redirty` tap. Fires only while tracking is on (so it
  /// self-disables at freeze) and only for the served domain. The installer
  /// must clear it before the owning migration object is destroyed.
  void set_redirty_hook(std::function<void(storage::BlockRange)> fn) {
    settle_source();
    redirty_hook_ = std::move(fn);
    notify_fidelity();
  }
  void clear_redirty_hook() {
    settle_source();
    redirty_hook_ = nullptr;
    notify_fidelity();
  }

  // ---- Stats ----
  std::uint64_t guest_reads() const noexcept { return reads_; }
  std::uint64_t guest_writes() const noexcept { return writes_; }
  std::uint64_t guest_read_bytes() const noexcept { return read_bytes_; }
  std::uint64_t guest_write_bytes() const noexcept { return write_bytes_; }

  // ---- Observability ----

  /// Register this backend's instruments under `prefix` ("blk.source"):
  /// read/write op and byte counters plus the dirty-bitmap set rate. Null
  /// pointers (the default) keep the guest I/O path allocation-free with a
  /// single branch per request.
  void attach_obs(obs::Registry& registry, const std::string& prefix);

 private:
  friend class GuestIo;

  GuestIo request(DomainId domain, storage::IoOp op, storage::BlockRange range,
                  std::span<const std::byte> bytes);
  /// The request held by the interceptor: on_request, then submitted.
  sim::Task<void> intercepted(DomainId domain, storage::IoOp op,
                              storage::BlockRange range,
                              std::span<const std::byte> bytes);
  /// Mark a served-domain write in the bitmap and run the redirty hook
  /// while tracking; true if it was tracked.
  bool mark_write(DomainId domain, storage::BlockRange range);
  void count_write(storage::BlockRange range);
  /// Count the request and queue it on the disk.
  storage::DiskIo hand_off(storage::IoOp op, storage::BlockRange range,
                           std::span<const std::byte> bytes);

  /// Observation-point settle. Logically const: the source folds modeled
  /// writes that already happened (in simulated time) into the backend
  /// state a const reader is about to look at.
  void settle_source() const {
    if (dirty_source_ != nullptr) dirty_source_->settle();
  }
  void notify_fidelity() {
    if (dirty_source_ != nullptr) dirty_source_->on_fidelity_change();
  }

  sim::Simulator& sim_;
  storage::VirtualDisk& disk_;
  DomainId served_;
  bool tracking_ = false;
  core::DirtyBitmap dirty_;
  std::uint64_t marks_total_ = 0;
  sim::Duration tracking_overhead_{};
  IoInterceptor* interceptor_ = nullptr;
  DirtySource* dirty_source_ = nullptr;
  std::function<void(storage::BlockRange)> write_observer_;
  std::function<void(storage::BlockRange)> redirty_hook_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t read_bytes_ = 0;
  std::uint64_t write_bytes_ = 0;
  obs::Counter* obs_read_ops_ = nullptr;
  obs::Counter* obs_write_ops_ = nullptr;
  obs::Counter* obs_read_bytes_ = nullptr;
  obs::Counter* obs_write_bytes_ = nullptr;
  obs::Counter* obs_dirty_marks_ = nullptr;
};

}  // namespace vmig::vm

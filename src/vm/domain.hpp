#pragma once

#include <cassert>
#include <functional>
#include <string>

#include "simcore/notifier.hpp"
#include "simcore/simulator.hpp"
#include "simcore/task.hpp"
#include "vm/blk_backend.hpp"
#include "vm/guest_memory.hpp"
#include "vm/types.hpp"
#include "vm/vcpu.hpp"

namespace vmig::vm {

/// The DomainU half of the split block driver: a thin proxy that forwards
/// ring requests to whichever backend the domain is currently connected to.
/// Rebinding the frontend to the destination host's backend is how a
/// migrated VM transparently starts using the migrated VBD.
class BlkFrontend {
 public:
  explicit BlkFrontend(DomainId owner) : owner_{owner} {}

  void connect(BlkBackend* be) {
    backend_ = be;
    if (rebind_hook_) rebind_hook_(be);
  }
  void disconnect() {
    backend_ = nullptr;
    if (rebind_hook_) rebind_hook_(nullptr);
  }
  bool connected() const noexcept { return backend_ != nullptr; }
  BlkBackend* backend() const noexcept { return backend_; }

  /// Invoked after every connect/disconnect with the new backend (null on
  /// disconnect). A dirty-rate model (workloads::SteadyWriter) follows the
  /// domain across migrations with this: it settles and detaches from the
  /// old backend, then attaches to the new one.
  void set_rebind_hook(std::function<void(BlkBackend*)> fn) {
    rebind_hook_ = std::move(fn);
  }
  void clear_rebind_hook() { rebind_hook_ = nullptr; }

  GuestIo submit(storage::IoOp op, storage::BlockRange range) {
    assert(backend_ != nullptr && "frontend not connected to a backend");
    return backend_->submit(owner_, op, range);
  }

  GuestIo submit_write_bytes(storage::BlockRange range,
                             std::span<const std::byte> bytes) {
    assert(backend_ != nullptr && "frontend not connected to a backend");
    return backend_->submit_write_bytes(owner_, range, bytes);
  }

 private:
  DomainId owner_;
  BlkBackend* backend_ = nullptr;
  std::function<void(BlkBackend*)> rebind_hook_;
};

/// An unprivileged guest VM (Xen DomainU): vCPU + memory + virtual disk
/// frontend, with a run/suspend lifecycle.
///
/// Workload coroutines drive the domain; every guest-visible operation
/// holds while the domain is suspended (`barrier()`, and the disk requests
/// themselves), so the freeze-and-copy phase stops the guest exactly as
/// Xen's suspend does, and resume at the destination lets it continue
/// where it stopped.
class Domain {
 public:
  enum class State : std::uint8_t { kRunning, kSuspended };

  Domain(sim::Simulator& sim, DomainId id, std::string name,
         std::uint64_t memory_mib)
      : sim_{sim},
        id_{id},
        name_{std::move(name)},
        memory_{memory_mib},
        frontend_{id},
        resume_notifier_{sim} {}

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  DomainId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  GuestMemory& memory() noexcept { return memory_; }
  const GuestMemory& memory() const noexcept { return memory_; }
  VCpuState& cpu() noexcept { return cpu_; }
  const VCpuState& cpu() const noexcept { return cpu_; }
  BlkFrontend& frontend() noexcept { return frontend_; }

  State state() const noexcept { return state_; }
  bool running() const noexcept { return state_ == State::kRunning; }

  /// Freeze the guest (start of the freeze-and-copy phase).
  void suspend();
  /// Unfreeze (resume on the destination — or abort back on the source).
  void resume();

  /// Invoked on every suspend/resume transition with the *new* running
  /// state, after the domain settled any attached dirty-rate model — the
  /// fast-forward settle point that keeps modeled writes exact across
  /// freeze windows (ticks up to the transition instant apply under the old
  /// state; see docs/SCALE.md).
  void set_state_hook(std::function<void(bool running)> fn) {
    state_hook_ = std::move(fn);
  }
  void clear_state_hook() { state_hook_ = nullptr; }

  /// Wall-clock the guest has spent frozen (downtime accounting cross-check).
  sim::Duration total_suspended_time() const;

  /// Completes immediately while running — an empty, already-ready task,
  /// so the common case allocates nothing; holds while suspended.
  sim::Task<void> barrier() {
    if (state_ == State::kRunning) return {};
    return wait_for_resume();
  }

  // ---- Guest-side operations used by workload drivers ----
  //
  // A request made while the domain runs goes straight to the frontend; one
  // made while it is suspended waits in a coroutine for the resume and then
  // takes the same path.

  GuestIo disk_read(storage::BlockRange range) {
    return request(storage::IoOp::kRead, range, {});
  }
  GuestIo disk_write(storage::BlockRange range) {
    return request(storage::IoOp::kWrite, range, {});
  }
  /// Write real bytes (payload-backed disks); tracked like any guest write.
  GuestIo disk_write_bytes(storage::BlockRange range,
                           std::span<const std::byte> bytes) {
    return request(storage::IoOp::kWrite, range, bytes);
  }

  /// Guest store to a memory page (dirty-logged during pre-copy).
  void touch_memory(PageId p) { memory_.write_page(p); }

 private:
  sim::Task<void> wait_for_resume();
  /// `bytes` non-empty makes a payload write.
  GuestIo request(storage::IoOp op, storage::BlockRange range,
                  std::span<const std::byte> bytes);
  sim::Task<void> request_after_resume(storage::IoOp op, storage::BlockRange range,
                                       std::span<const std::byte> bytes);

  sim::Simulator& sim_;
  DomainId id_;
  std::string name_;
  GuestMemory memory_;
  VCpuState cpu_;
  BlkFrontend frontend_;
  State state_ = State::kRunning;
  std::function<void(bool)> state_hook_;
  sim::Notifier resume_notifier_;
  sim::TimePoint suspended_at_{};
  sim::Duration suspended_total_{};
};

}  // namespace vmig::vm

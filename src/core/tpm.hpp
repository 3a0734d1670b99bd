#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/migration_config.hpp"
#include "core/migration_metrics.hpp"
#include "core/migration_request.hpp"
#include "core/post_copy.hpp"
#include "core/protocol.hpp"
#include "hypervisor/checkpoint.hpp"
#include "hypervisor/host.hpp"
#include "net/message_stream.hpp"
#include "obs/tracer.hpp"
#include "simcore/notifier.hpp"
#include "simcore/simulator.hpp"
#include "vm/domain.hpp"

namespace vmig::obs {
class Counter;
class FlightRecorder;
}  // namespace vmig::obs

namespace vmig::core {

/// Durable resume state exported by an aborted migration attempt: the blocks
/// the destination already holds a valid copy of (sent and not re-dirtied,
/// plus blocks that never needed sending). A retry of the same
/// (domain, source, destination) triple seeds its first pass with the
/// complement of this bitmap, OR-ed with every write tracked since — it
/// re-sends only still-dirty blocks instead of the whole disk
/// (docs/FAULTS.md). Kept by MigrationManager; sound because destination
/// VBDs persist across attempts.
struct MigrationResumeState {
  DirtyBitmap transferred;
};

/// Three-Phase Migration: whole-system live migration of a VM — local disk,
/// memory, and CPU state — between two hosts with no shared storage
/// (paper §IV), with Incremental Migration (§V) applied automatically when
/// the source backend is still tracking writes from a previous migration.
///
/// Phases, exactly as in Fig. 1/2 of the paper:
///   1. *Pre-copy*: prepare a VBD at the destination; iteratively pre-copy
///      the local disk with blkback tracking writes in a block-bitmap
///      (first iteration = whole disk, or just the IM bitmap); then
///      iteratively pre-copy memory Xen-style.
///   2. *Freeze-and-copy*: suspend the VM, ship residual dirty pages, vCPU
///      context, and the block-bitmap.
///   3. *Post-copy*: resume at the destination immediately; synchronize the
///      remaining dirty blocks by source push + destination pull.
///
/// One TpmMigration instance models both daemons (the source's and
/// destination's blkd + xc_linux_save/restore); messages still pay full
/// network and disk costs on both sides.
class TpmMigration {
 public:
  /// Migration phases, in order, for progress reporting.
  enum class Phase : std::uint8_t {
    kPreparing,
    kDiskPrecopy,
    kMemoryPrecopy,
    kFreeze,
    kPostCopy,
    kDone,
  };
  static const char* phase_name(Phase p);

  /// Called on every phase transition and periodically within the disk
  /// pre-copy; `fraction` is the disk pre-copy progress in [0,1] (0 for the
  /// other phases, 1 at kDone).
  using ProgressListener = std::function<void(Phase, double fraction)>;

  TpmMigration(sim::Simulator& sim, MigrationConfig cfg, vm::Domain& domain,
               hv::Host& source, hv::Host& dest);

  void set_progress_listener(ProgressListener l) { progress_ = std::move(l); }

  /// Attach the flight recorder under migration id `mig` (normally done by
  /// MigrationManager right after FlightRecorder::begin_migration). Must be
  /// called before run(); null recorder (the default) records nothing.
  void set_flight(obs::FlightRecorder* rec, std::uint32_t mig) {
    flight_ = rec;
    flight_mig_ = mig;
  }

  TpmMigration(const TpmMigration&) = delete;
  TpmMigration& operator=(const TpmMigration&) = delete;

  /// Execute the whole migration; returns when source and destination are
  /// fully synchronized (end of post-copy).
  ///
  /// Throws MigrationAborted if a pre-copy phase stops cleanly first: a link
  /// outage observed at a chunk boundary (kLinkDisrupted) or a proactive
  /// non-convergence stop under cfg.abort_on_non_convergence
  /// (kNonConvergent). Either way the abort happens strictly *before*
  /// freeze-and-copy: the VM never stops running on the source, both streams
  /// are closed and the receive loops joined before the exception surfaces,
  /// and source-side write tracking is left running so a retry falls back to
  /// a correct full first pass (see MigrationManager's pairwise guard).
  sim::Task<MigrationReport> run();

  const MigrationReport& report() const noexcept { return rep_; }
  /// The destination's copy of guest memory, as received over the wire.
  const vm::GuestMemory& shadow_memory() const noexcept { return shadow_mem_; }

  /// Override the first pre-copy pass with an externally-maintained seed
  /// (multi-host IM directory, or a forced full copy when the destination
  /// does not hold this VM's base image). Must be called before run(); the
  /// caller is responsible for having consumed the source backend's
  /// tracking bitmap into the seed. `mark_incremental` controls whether the
  /// report counts this as an incremental migration.
  void set_first_pass_seed(DirtyBitmap seed, bool mark_incremental = true) {
    explicit_seed_ = std::move(seed);
    explicit_seed_incremental_ = mark_incremental;
  }

  /// Mark this run as resumed from a previous aborted attempt (the manager
  /// already folded the resume state into the first-pass seed).
  /// `blocks_saved` = blocks the seed excluded versus a full restart.
  void mark_resumed(std::uint64_t blocks_saved) {
    rep_.resume_applied = true;
    rep_.resumed_blocks_saved = blocks_saved;
  }

  /// After a clean pre-freeze abort: the transferred-bitmap to seed a
  /// resumed retry from, or nullopt if the attempt never reached the disk
  /// pre-copy. Consumes the state.
  std::optional<MigrationResumeState> take_resume_state() {
    return std::exchange(resume_state_, std::nullopt);
  }

  /// Every source-side write the migration observed being consumed from the
  /// backend's tracking bitmap (iteration snapshots + the freeze snapshot).
  /// Used by ImDirectory to keep per-host divergence maps current.
  const DirtyBitmap& observed_source_writes() const noexcept {
    return observed_writes_;
  }

 private:
  // ---- Source side ----
  sim::Task<void> disk_precopy();
  sim::Task<std::uint64_t> transfer_by_bitmap(const DirtyBitmap& bm,
                                              std::uint64_t* blocks_out);
  sim::Task<void> memory_precopy();
  sim::Task<void> freeze_and_copy();
  sim::Task<void> source_recv_loop();
  sim::Task<void> await_control(Control kind);

  // ---- Destination side ----
  sim::Task<void> dest_recv_loop();
  sim::Task<void> handle_enter_postcopy();
  /// Freeze-and-copy fallback: while post-copy runs, suspend the guest if
  /// the migration path stays down past cfg_.postcopy_freeze_deadline (its
  /// reads could only stall anyway); resume it once synchronized.
  sim::Task<void> postcopy_freeze_watchdog();
  /// Opt the post-copy data plane (pushes, pull responses, pull requests)
  /// into the links' injected-loss model; everything else stays reliable.
  void install_drop_policies();

  void verify_consistency();
  void notify_progress(Phase p, double fraction) {
    if (progress_) progress_(p, fraction);
  }

  /// True if either direction of the migration path has seen an injected
  /// outage since this migration started (a connection-oriented transport
  /// would have observed the break even though the link is back up).
  bool link_disrupted() const {
    return fwd_.link().disrupted_since(link_epoch_) ||
           rev_.link().disrupted_since(link_epoch_);
  }

  // ---- Observability (cfg_.obs_tracer / cfg_.obs_registry; null = off) ----
  /// Create tracks, hook the memory migrator, and install per-message-type
  /// byte counters on both streams.
  void setup_obs();
  /// Emit the phase spans from the report's own timestamps so the trace is
  /// exactly consistent with downtime()/postcopy_time()/total_time().
  void emit_phase_spans();

  ProgressListener progress_;
  sim::Simulator& sim_;
  MigrationConfig cfg_;
  vm::Domain& domain_;
  hv::Host& src_;
  hv::Host& dst_;
  MigStream fwd_;  ///< source -> destination (data plane)
  MigStream rev_;  ///< destination -> source (pulls, acks)
  net::TokenBucket shaper_;
  hv::MemoryMigrator mem_migrator_;
  MigrationReport rep_;

  std::optional<DirtyBitmap> explicit_seed_;
  bool explicit_seed_incremental_ = true;
  DirtyBitmap observed_writes_;

  /// Blocks the destination currently holds a valid copy of (resume state
  /// in the making): initialized to the complement of the first-pass seed,
  /// bits set as chunks are delivered, cleared again when a later iteration
  /// snapshot shows the block was re-dirtied.
  DirtyBitmap resume_transferred_;
  bool resume_tracking_started_ = false;
  std::optional<MigrationResumeState> resume_state_;

  // Cooperative pre-copy abort state (see run()'s contract).
  std::optional<MigrationStatus> abort_reason_;
  bool abort_transfer_ = false;  ///< tells the pre-copy reader to stop
  sim::TimePoint link_epoch_{};  ///< disruptions before this don't count

  // Destination-side state.
  vm::GuestMemory shadow_mem_;  ///< pages as received over the wire
  std::optional<vm::VCpuState> received_cpu_;
  std::optional<DirtyBitmap> received_bitmap_;
  std::unique_ptr<PostCopyDestination> pc_dst_;
  std::unique_ptr<PostCopySource> pc_src_;
  sim::SpawnHandle recovery_loop_;    ///< pc_dst_->run_recovery()
  sim::SpawnHandle freeze_watchdog_;  ///< postcopy_freeze_watchdog()

  // Control-plane rendezvous.
  sim::Notifier control_notify_;
  std::uint64_t control_seen_[8] = {};  ///< per-Control receive counters
  std::uint64_t control_waited_[8] = {};
  bool source_done_ = false;

  // Observability state (all inert when cfg_.obs_tracer/registry are null).
  obs::FlightRecorder* flight_ = nullptr;
  std::uint32_t flight_mig_ = 0;
  std::int32_t flight_iter_ = 0;  ///< disk iteration a transfer belongs to
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId trk_tpm_ = 0;   ///< <source>/"tpm": phases + disk iterations
  obs::TrackId trk_mem_ = 0;   ///< <source>/"memory": pre-copy rounds
  obs::TrackId trk_push_ = 0;  ///< <source>/"postcopy": push/pull serving
  obs::TrackId trk_dst_ = 0;   ///< <dest>/"postcopy": stalls, pull requests
  sim::TimePoint t_disk_precopy_begin_{};
  /// Per-payload-alternative wire-byte counters ("net.msg.<type>.bytes").
  obs::Counter* msg_bytes_[std::variant_size_v<MigrationMessage::Payload>] = {};
};

}  // namespace vmig::core

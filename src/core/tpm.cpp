#include "core/tpm.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "simcore/channel.hpp"
#include "simcore/log.hpp"

namespace vmig::core {

namespace {
constexpr std::uint64_t kMiB = 1024ull * 1024ull;
/// Destination-side VBD allocation cost (sparse file + backend hookup).
constexpr sim::Duration kVbdPrepareCost = sim::Duration::millis(5);
}  // namespace

const char* TpmMigration::phase_name(Phase p) {
  switch (p) {
    case Phase::kPreparing:
      return "preparing";
    case Phase::kDiskPrecopy:
      return "disk-precopy";
    case Phase::kMemoryPrecopy:
      return "memory-precopy";
    case Phase::kFreeze:
      return "freeze-and-copy";
    case Phase::kPostCopy:
      return "post-copy";
    default:
      return "done";
  }
}

TpmMigration::TpmMigration(sim::Simulator& sim, MigrationConfig cfg,
                           vm::Domain& domain, hv::Host& source, hv::Host& dest)
    : sim_{sim},
      cfg_{cfg},
      domain_{domain},
      src_{source},
      dst_{dest},
      fwd_{sim, source.link_to(dest)},
      rev_{sim, dest.link_to(source)},
      shaper_{sim, cfg.rate_limit_mibps},
      mem_migrator_{sim, cfg_},
      shadow_mem_{domain.memory().total_bytes() / kMiB,
                  domain.memory().page_size()},
      control_notify_{sim} {
  // Runs under the caller's kOther scope: with the guest's memory already
  // written, the shadow's array is allocated here, so dest_recv_loop
  // applies rounds without allocating.
  if (domain.memory().has_versions()) shadow_mem_.reserve_versions();
}

sim::Task<MigrationReport> TpmMigration::run() {
  assert(src_.hosts_domain(domain_) && "domain must start on the source host");
  setup_obs();
  install_drop_policies();
  if (cfg_.obs_registry != nullptr && rep_.resume_applied) {
    cfg_.obs_registry->counter("migration.resumes").add(1.0);
    cfg_.obs_registry->counter("migration.resumed_blocks_saved")
        .add(static_cast<double>(rep_.resumed_blocks_saved));
  }
  rep_.started = sim_.now();
  link_epoch_ = sim_.now();
  sim::LogLine(sim::LogLevel::kInfo, sim_.now(), "tpm")
      << "migrating '" << domain_.name() << "': " << src_.name() << " -> "
      << dst_.name();

  auto dest_loop = sim_.spawn(dest_recv_loop(), "tpm-dest-recv");
  auto src_loop = sim_.spawn(source_recv_loop(), "tpm-src-recv");

  // ---- Phase 1: pre-copy ----
  notify_progress(Phase::kPreparing, 0.0);
  rep_.bytes_control += MigrationMessage{ControlMsg{Control::kPrepareVbd}}.wire_bytes();
  co_await fwd_.send(MigrationMessage{ControlMsg{Control::kPrepareVbd}});
  co_await await_control(Control::kVbdReady);

  sim::LogLine(sim::LogLevel::kDebug, sim_.now(), "tpm") << "vbd ready, disk precopy";
  notify_progress(Phase::kDiskPrecopy, 0.0);
  t_disk_precopy_begin_ = sim_.now();
  co_await disk_precopy();
  rep_.disk_precopy_done = sim_.now();
  if (!abort_reason_.has_value() && link_disrupted()) {
    abort_reason_ = MigrationStatus::kLinkDisrupted;
  }
  if (!abort_reason_.has_value()) {
    sim::LogLine(sim::LogLevel::kDebug, sim_.now(), "tpm") << "disk precopy done, memory precopy";
    notify_progress(Phase::kMemoryPrecopy, 0.0);
    co_await memory_precopy();
    sim::LogLine(sim::LogLevel::kDebug, sim_.now(), "tpm") << "memory precopy done";
    if (link_disrupted()) abort_reason_ = MigrationStatus::kLinkDisrupted;
  }

  if (abort_reason_.has_value()) {
    // Clean pre-freeze abort: the VM never stopped running on the source.
    // Close both streams and join the receive loops *before* surfacing the
    // failure — they are root tasks referencing this object, which the
    // caller may destroy as soon as the exception lands. Source-side write
    // tracking is deliberately left running: together with the exported
    // resume state it makes a retry's first pass exactly the still-dirty
    // delta; without resume, the manager's pairwise guard forces a correct
    // full first pass.
    fwd_.close();
    rev_.close();
    co_await dest_loop;
    co_await src_loop;
    // Tracking stays on for the retry, but the hook must not outlive us.
    if (flight_ != nullptr) src_.backend_for(domain_.id()).clear_redirty_hook();
    if (resume_tracking_started_) {
      // The dest-loop join above guarantees every delivered chunk has been
      // applied to the destination VBD, so the bitmap is now exact.
      resume_state_ = MigrationResumeState{std::move(resume_transferred_)};
    }
    if (tracer_) {
      tracer_->instant(trk_tpm_, "migration_aborted",
                       std::string{"\"reason\": \""} +
                           to_string(*abort_reason_) + "\"");
    }
    sim::LogLine(sim::LogLevel::kInfo, sim_.now(), "tpm")
        << "aborted (" << to_string(*abort_reason_) << "): '"
        << domain_.name() << "' stays on " << src_.name();
    throw MigrationAborted{
        *abort_reason_,
        std::string{"migration of '"} + domain_.name() + "' aborted: " +
            to_string(*abort_reason_),
        rep_};
  }

  // ---- Phase 2: freeze-and-copy ----
  notify_progress(Phase::kFreeze, 0.0);
  co_await freeze_and_copy();
  notify_progress(Phase::kPostCopy, 0.0);

  // ---- Phase 3: post-copy ----
  auto pusher = sim_.spawn(pc_src_->run(), "tpm-pusher");
  co_await await_control(Control::kSyncComplete);
  co_await pusher;
  rep_.synchronized = sim_.now();
  emit_phase_spans();

  // Join the recovery/watchdog loops (spawned at enter-postcopy); both exit
  // within one tick of the done gate opening, after the synchronized
  // timestamp is recorded so the headline metrics stay loop-free.
  co_await recovery_loop_;
  co_await freeze_watchdog_;

  // Fold destination-side post-copy stats into the report.
  rep_.blocks_pushed = pc_dst_->stats().blocks_pushed;
  rep_.blocks_pulled = pc_dst_->stats().blocks_pulled;
  rep_.blocks_dropped = pc_dst_->stats().blocks_dropped;
  rep_.postcopy_reads_blocked = pc_dst_->reads_blocked();
  rep_.postcopy_read_stall_total = pc_dst_->total_read_stall();
  rep_.postcopy_read_stall_max = pc_dst_->max_read_stall();
  rep_.bytes_postcopy_push = pc_dst_->stats().bytes_push;
  rep_.bytes_postcopy_pull =
      pc_dst_->stats().bytes_pull + pc_dst_->stats().pull_requests * kMsgHeaderBytes;
  rep_.postcopy_pull_retries = pc_dst_->pull_retries();

  {
    // End-of-migration verification copies whole bitmaps — control-plane.
    obs::ProfScope verify_prof{obs::ProfCategory::kOther};
    verify_consistency();
    notify_progress(Phase::kDone, 1.0);
  }

  fwd_.close();
  rev_.close();
  co_await dest_loop;
  co_await src_loop;

  sim::LogLine(sim::LogLevel::kInfo, sim_.now(), "tpm")
      << "done: total=" << rep_.total_time().str()
      << " downtime=" << rep_.downtime().str() << " data=" << rep_.total_mib()
      << " MiB";
  co_return rep_;
}

// --------------------------- Source side ---------------------------

namespace {

/// Reader half of the pre-copy pipeline: pulls dirty runs off the bitmap,
/// reads them from the source disk, and feeds a bounded channel. Runs
/// concurrently with the network sender so disk and link overlap, as blkd's
/// read thread does.
sim::Task<void> precopy_reader(sim::Simulator& sim, storage::VirtualDisk& disk,
                               const DirtyBitmap& bm, std::uint32_t chunk_blocks,
                               sim::Duration cpu_per_mib, const bool* abort,
                               sim::Channel<DiskBlocksMsg>& pipe) {
  const std::uint32_t block_size = disk.geometry().block_size;
  SetRunCursor runs{bm};
  for (;;) {
    if (*abort) break;  // consumer noticed a link outage; stop reading
    std::optional<SetRun> run;
    // vmig-lint: hot-begin -- bitmap scan: per-run inner loop of every
    // pre-copy iteration; scanning must stay allocation-free
    {
      obs::ProfScope prof{obs::ProfCategory::kBitmapScan};
      run = runs.next(chunk_blocks);
    }
    // vmig-lint: hot-end
    if (!run) break;
    const storage::BlockId rs = run->start;
    const auto rn = static_cast<std::uint32_t>(run->len);
    obs::prof_count(obs::ProfCategory::kBitmapScan, rn);
    const storage::BlockRange r{rs, rn};
    co_await disk.read(r, storage::IoSource::kMigration);
    if (cpu_per_mib > sim::Duration::zero()) {
      // User-space daemon cost: copying the chunk out of the backend and
      // framing it dominates per-byte, so charge proportionally.
      co_await sim.delay(cpu_per_mib.scaled(
          static_cast<double>(r.bytes(block_size)) / (1024.0 * 1024.0)));
    }
    DiskBlocksMsg msg = [&] {
      // Payload materialization (content-token snapshot) is charged to the
      // disk-iteration category, not dispatch.
      obs::ProfScope read_prof{obs::ProfCategory::kDiskIteration};
      return DiskBlocksMsg::from_disk(disk, r, /*pulled=*/false);
    }();
    co_await pipe.send(std::move(msg));
  }
  pipe.close();
}

}  // namespace

sim::Task<std::uint64_t> TpmMigration::transfer_by_bitmap(
    const DirtyBitmap& bm, std::uint64_t* blocks_out) {
  // The channel's deque allocates at construction; that is per-transfer setup,
  // not dispatch work, so the ctor runs under a kOther scope. The IIFE returns
  // a prvalue (guaranteed elision — Channel is non-movable).
  sim::Channel<DiskBlocksMsg> pipe = [&]() -> sim::Channel<DiskBlocksMsg> {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    return sim::Channel<DiskBlocksMsg>{sim_, /*capacity=*/4};
  }();
  auto reader = sim_.spawn(
      precopy_reader(sim_, src_.vbd_for(domain_.id()), bm, cfg_.disk_chunk_blocks,
                     cfg_.blkd_cpu_per_mib, &abort_transfer_, pipe),
      "precopy-reader");
  net::TokenBucket* shaper = cfg_.rate_limit_mibps > 0 ? &shaper_ : nullptr;

  const std::uint64_t total_blocks = std::max<std::uint64_t>(bm.count_set(), 1);
  std::uint64_t sent_blocks = 0;
  std::uint64_t next_report = total_blocks / 20 + 1;
  std::uint64_t bytes = 0;
  for (;;) {
    auto msg = co_await pipe.recv();
    if (!msg) break;
    if (!abort_transfer_ && link_disrupted()) {
      // The migration connection broke mid-stream. Stop feeding the wire;
      // keep draining the pipe so the reader unblocks and exits.
      abort_transfer_ = true;
      abort_reason_ = MigrationStatus::kLinkDisrupted;
      if (tracer_) tracer_->instant(trk_tpm_, "link_disrupted");
    }
    if (abort_transfer_) continue;
    {
      // Synchronous chunk accounting only; the sends around it suspend.
      obs::ProfScope prof{obs::ProfCategory::kDiskIteration};
      obs::prof_count(obs::ProfCategory::kDiskIteration, msg->range.count);
      if (blocks_out != nullptr) *blocks_out += msg->range.count;
      sent_blocks += msg->range.count;
      if (sent_blocks >= next_report) {
        notify_progress(Phase::kDiskPrecopy,
                        static_cast<double>(sent_blocks) /
                            static_cast<double>(total_blocks));
        next_report += total_blocks / 20 + 1;
      }
    }
    const storage::BlockRange delivered_range = msg->range;
    MigrationMessage wire{std::move(*msg)};
    const std::uint64_t chunk_bytes = wire.wire_bytes();
    bytes += chunk_bytes;
    const bool delivered = co_await fwd_.send(std::move(wire), shaper);
    if (flight_ != nullptr) {
      // Emit regardless of delivery so iteration byte sums reconcile with
      // the report's accounting (which also counts undelivered chunks).
      flight_->disk_precopy_send(flight_mig_, sim_.now(), flight_iter_,
                                 delivered_range.start, delivered_range.count,
                                 chunk_bytes);
    }
    // The stream is FIFO and the dest loop applies chunks in order, so a
    // successful send is as good as applied once the dest loop is joined.
    if (delivered) {
      resume_transferred_.set_range(delivered_range.start, delivered_range.count);
    }
  }
  co_await reader;
  co_return bytes;
}

sim::Task<void> TpmMigration::disk_precopy() {
  const std::uint64_t nblocks = src_.vbd_for(domain_.id()).geometry().block_count;
  DirtyBitmap seed;
  // Per-migration setup (bitmap construction, seed selection, resume
  // bookkeeping) is control-plane work: scope it kOther so the dispatch
  // loop's alloc counter stays a steady-state signal. The scope is a plain
  // block — it must close before the first co_await.
  {
  obs::ProfScope setup_prof{obs::ProfCategory::kOther};
  observed_writes_ = DirtyBitmap{cfg_.bitmap_kind, nblocks};

  // Incremental Migration (§V): if blkback is still tracking writes from a
  // previous migration onto this host, its bitmap has every block dirtied
  // since — only those need to move. Otherwise generate an all-set bitmap.
  // A multi-host IM directory (§VII) may supply the seed explicitly.
  if (explicit_seed_.has_value()) {
    seed = std::move(*explicit_seed_);
    rep_.incremental = explicit_seed_incremental_;
    if (!src_.backend_for(domain_.id()).tracking()) {
      src_.backend_for(domain_.id()).set_tracking_overhead(cfg_.tracking_overhead);
      src_.backend_for(domain_.id()).start_write_tracking(cfg_.bitmap_kind);
    }
  } else if (src_.backend_for(domain_.id()).tracking()) {
    seed = src_.backend_for(domain_.id()).snapshot_dirty_and_reset();
    observed_writes_.or_with(seed);
    rep_.incremental = true;
  } else {
    src_.backend_for(domain_.id()).set_tracking_overhead(cfg_.tracking_overhead);
    src_.backend_for(domain_.id()).start_write_tracking(cfg_.bitmap_kind);
    seed = DirtyBitmap{cfg_.bitmap_kind, nblocks, /*initially_set=*/true};
    if (cfg_.skip_unused_blocks) {
      // Guest-assisted free-block map (§VII): never-written blocks hold the
      // well-known zero pattern on both sides; don't ship them.
      for (std::uint64_t b = 0; b < nblocks; ++b) {
        if (src_.vbd_for(domain_.id()).token(b) == storage::kZeroBlockToken) {
          seed.clear(b);
          ++rep_.blocks_skipped_unused;
        }
      }
    }
  }

  // Resume bookkeeping: start from the complement of the first-pass seed —
  // any block the seed excludes (IM-clean, skip-unused, resume-carried) is
  // already valid at the destination and counts as transferred.
  resume_transferred_ = DirtyBitmap{cfg_.bitmap_kind, nblocks, /*initially_set=*/true};
  // vmig-lint: hot-begin -- full-bitmap sweep over the first-pass seed
  {
    obs::ProfScope prof{obs::ProfCategory::kBitmapScan};
    resume_transferred_.subtract(seed);
  }
  // vmig-lint: hot-end
  resume_tracking_started_ = true;
  }  // end of setup kOther scope

  const sim::TimePoint iter1_start = sim_.now();
  flight_iter_ = 1;
  rep_.bytes_disk_first_pass =
      co_await transfer_by_bitmap(seed, &rep_.blocks_first_pass);
  rep_.disk_iterations = 1;
  if (abort_reason_.has_value()) co_return;
  rep_.bytes_control += MigrationMessage{ControlMsg{Control::kIterationEnd}}.wire_bytes();
  co_await fwd_.send(MigrationMessage{ControlMsg{Control::kIterationEnd}});
  co_await await_control(Control::kIterationAck);
  if (tracer_) {
    tracer_->complete(trk_tpm_, iter1_start, "iteration",
                      "\"i\": 1, \"blocks\": " +
                          std::to_string(rep_.blocks_first_pass) +
                          ", \"bytes\": " +
                          std::to_string(rep_.bytes_disk_first_pass));
  }

  std::uint64_t last_transferred = std::max<std::uint64_t>(rep_.blocks_first_pass, 1);
  // Reused snapshot buffer: take_and_reset_into lands each iteration's
  // dirty set in this bitmap's existing storage (no per-iteration copy
  // allocation for flat/three-level kinds).
  DirtyBitmap snap;
  while (rep_.disk_iterations < cfg_.disk_max_iterations) {
    const std::uint64_t dirty = src_.backend_for(domain_.id()).dirty_block_count();
    if (dirty <= cfg_.disk_residual_target_blocks) break;
    if (static_cast<double>(dirty) >= static_cast<double>(last_transferred) *
                                          cfg_.disk_dirty_rate_abort_ratio) {
      // "If the dirty rate is higher than the transfer rate, the storage
      // pre-copy must be stopped proactively."
      rep_.aborted_precopy_dirty_rate = true;
      if (tracer_) {
        tracer_->instant(trk_tpm_, "dirty_rate_abort",
                         "\"dirty_blocks\": " + std::to_string(dirty) +
                             ", \"last_transferred\": " +
                             std::to_string(last_transferred));
      }
      // The paper proceeds to freeze anyway (post-copy absorbs the large
      // residue); an orchestrated job may prefer a clean abort so the VM
      // can be retried when its write cycle cools down.
      if (cfg_.abort_on_non_convergence) {
        abort_reason_ = MigrationStatus::kNonConvergent;
      }
      break;
    }
    // vmig-lint: hot-begin -- per-iteration dirty-snapshot merge
    {
      obs::ProfScope prof{obs::ProfCategory::kBitmapScan};
      src_.backend_for(domain_.id()).snapshot_dirty_and_reset_into(snap);
      observed_writes_.or_with(snap);
      // Re-dirtied blocks invalidate the destination's copy until re-delivered.
      resume_transferred_.subtract(snap);
    }
    // vmig-lint: hot-end
    const sim::TimePoint iter_start = sim_.now();
    std::uint64_t n = 0;
    flight_iter_ = static_cast<std::int32_t>(rep_.disk_iterations) + 1;
    const std::uint64_t iter_bytes = co_await transfer_by_bitmap(snap, &n);
    rep_.bytes_disk_retransfer += iter_bytes;
    rep_.blocks_retransferred += n;
    last_transferred = std::max<std::uint64_t>(n, 1);
    ++rep_.disk_iterations;
    if (abort_reason_.has_value()) co_return;
    rep_.bytes_control +=
        MigrationMessage{ControlMsg{Control::kIterationEnd}}.wire_bytes();
    co_await fwd_.send(MigrationMessage{ControlMsg{Control::kIterationEnd}});
    co_await await_control(Control::kIterationAck);
    if (tracer_) {
      tracer_->complete(trk_tpm_, iter_start, "iteration",
                        "\"i\": " + std::to_string(rep_.disk_iterations) +
                            ", \"blocks\": " + std::to_string(n) +
                            ", \"bytes\": " + std::to_string(iter_bytes));
    }
  }
}

sim::Task<void> TpmMigration::memory_precopy() {
  net::TokenBucket* shaper = cfg_.rate_limit_mibps > 0 ? &shaper_ : nullptr;
  const auto res = co_await mem_migrator_.precopy(domain_, fwd_, shaper);
  rep_.mem_iterations = res.iterations;
  rep_.pages_precopied = res.pages_sent;
  rep_.bytes_memory_precopy = res.bytes_sent;
}

sim::Task<void> TpmMigration::freeze_and_copy() {
  domain_.suspend();
  rep_.suspended = sim_.now();
  if (tracer_) tracer_->instant(trk_tpm_, "suspended");
  co_await sim_.delay(cfg_.suspend_overhead);

  // Snapshot the final inconsistent-block set; tracking stops on the source
  // (it restarts on the destination for IM). Freeze happens once per
  // migration — control-plane, not dispatch — so the synchronous chunk runs
  // under kOther (plain block: it must close before the next co_await).
  DirtyBitmap final_bm;
  {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    src_.backend_for(domain_.id()).snapshot_dirty_and_reset_into(final_bm);
    observed_writes_.or_with(final_bm);
    src_.backend_for(domain_.id()).stop_write_tracking();
    // Tracking is off: no redirty can fire again, and the source backend may
    // outlive this migration object.
    if (flight_ != nullptr) src_.backend_for(domain_.id()).clear_redirty_hook();
    rep_.residual_dirty_blocks = final_bm.count_set();
  }

  // Residual dirty pages + vCPU context, then the block-bitmap.
  const auto res = co_await mem_migrator_.send_residual(domain_, fwd_);
  rep_.pages_residual = res.pages;
  rep_.bytes_freeze_residual += res.bytes;
  if (flight_ != nullptr) {
    flight_->freeze_send(flight_mig_, sim_.now(),
                         obs::FlightRecorder::Unit::kMem, res.pages,
                         res.pages_bytes);
    flight_->freeze_send(flight_mig_, sim_.now(),
                         obs::FlightRecorder::Unit::kCpu, 1, res.cpu_bytes);
  }

  MigrationMessage bm_msg = [&] {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    return MigrationMessage{BlockBitmapMsg{final_bm}};
  }();
  const std::uint64_t bm_bytes = bm_msg.wire_bytes();
  rep_.bytes_bitmap += bm_bytes;
  co_await fwd_.send(std::move(bm_msg));
  if (flight_ != nullptr) {
    flight_->freeze_send(flight_mig_, sim_.now(),
                         obs::FlightRecorder::Unit::kBitmap,
                         rep_.residual_dirty_blocks, bm_bytes);
  }

  {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    pc_src_ = std::make_unique<PostCopySource>(
        sim_, src_.vbd_for(domain_.id()), std::move(final_bm), fwd_,
        cfg_.push_chunk_blocks,
        cfg_.rate_limit_postcopy && cfg_.rate_limit_mibps > 0 ? &shaper_
                                                             : nullptr);
    pc_src_->attach_obs(tracer_, trk_push_, cfg_.obs_registry);
    if (flight_ != nullptr) pc_src_->attach_flight(flight_, flight_mig_);
  }

  rep_.bytes_control +=
      MigrationMessage{ControlMsg{Control::kEnterPostCopy}}.wire_bytes();
  co_await fwd_.send(MigrationMessage{ControlMsg{Control::kEnterPostCopy}});
}

sim::Task<void> TpmMigration::source_recv_loop() {
  for (;;) {
    auto m = co_await rev_.recv();
    if (!m) break;
    if (const auto* pull = m->get_if<PullRequestMsg>()) {
      rep_.bytes_postcopy_pull += m->wire_bytes();
      if (pc_src_) pc_src_->enqueue_pull(pull->block);
    } else if (const auto* c = m->get_if<ControlMsg>()) {
      rep_.bytes_control += m->wire_bytes();
      if (c->kind == Control::kSyncComplete && pc_src_) {
        // Remaining pushes would only be dropped; stop reading the disk.
        pc_src_->request_stop();
      }
      ++control_seen_[static_cast<int>(c->kind)];
      control_notify_.notify_all();
    }
  }
}

sim::Task<void> TpmMigration::await_control(Control kind) {
  const int idx = static_cast<int>(kind);
  const std::uint64_t target = ++control_waited_[idx];
  while (control_seen_[idx] < target) co_await control_notify_.wait();
}

// ------------------------- Destination side -------------------------

sim::Task<void> TpmMigration::dest_recv_loop() {
  for (;;) {
    auto m = co_await fwd_.recv();
    if (!m) break;
    if (auto* blocks = m->get_if<DiskBlocksMsg>()) {
      if (pc_dst_) {
        co_await pc_dst_->on_block_received(*blocks);
      } else {
        // Pre-copy: install the blocks on the destination VBD. The receiving
        // blkd pays the same per-byte user-space cost as the sender.
        if (cfg_.blkd_cpu_per_mib > sim::Duration::zero()) {
          co_await sim_.delay(cfg_.blkd_cpu_per_mib.scaled(
              static_cast<double>(blocks->range.bytes(blocks->block_size)) /
              (1024.0 * 1024.0)));
        }
        co_await dst_.vbd_for(domain_.id()).write_segments(blocks->range, blocks->tokens,
                                          storage::IoSource::kMigration);
        blocks->apply_payloads_to(dst_.vbd_for(domain_.id()));
      }
    } else if (const auto* pages = m->get_if<MemPagesMsg>()) {
      pages->apply_to(shadow_mem_);
    } else if (const auto* cpu = m->get_if<CpuStateMsg>()) {
      received_cpu_ = cpu->cpu;
    } else if (auto* bm = m->get_if<BlockBitmapMsg>()) {
      received_bitmap_ = std::move(bm->bitmap);
    } else if (const auto* c = m->get_if<ControlMsg>()) {
      switch (c->kind) {
        case Control::kPrepareVbd:
          co_await sim_.delay(kVbdPrepareCost);
          rep_.bytes_control +=
              MigrationMessage{ControlMsg{Control::kVbdReady}}.wire_bytes();
          co_await rev_.send(MigrationMessage{ControlMsg{Control::kVbdReady}});
          break;
        case Control::kIterationEnd:
          // All data of the iteration has been applied (this loop is
          // serial), so the ack truly means "destination disk caught up".
          rep_.bytes_control +=
              MigrationMessage{ControlMsg{Control::kIterationAck}}.wire_bytes();
          co_await rev_.send(MigrationMessage{ControlMsg{Control::kIterationAck}});
          break;
        case Control::kEnterPostCopy:
          co_await handle_enter_postcopy();
          break;
        case Control::kPushComplete:
          // Completion is detected by the transferred bitmap draining; the
          // marker (reliable control plane) additionally tells the recovery
          // loop that any block still missing was lost in flight.
          if (pc_dst_) pc_dst_->note_push_complete();
          break;
        default:
          break;
      }
    }
  }
}

sim::Task<void> TpmMigration::handle_enter_postcopy() {
  assert(received_bitmap_.has_value() && "bitmap must precede EnterPostCopy");
  assert(received_cpu_.has_value() && "CPU state must precede EnterPostCopy");

  // Handover setup (PostCopyDestination construction, fresh tracking bitmap,
  // domain relocation) is once-per-migration control-plane work: scope it
  // kOther so dispatch stays a steady-state alloc signal. Plain block — it
  // must close before the co_await below.
  {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    pc_dst_ = std::make_unique<PostCopyDestination>(
        sim_, dst_.vbd_for(domain_.id()), *received_bitmap_, domain_.id(), rev_,
        cfg_.postcopy_pull_enabled);
    pc_dst_->set_recovery({cfg_.postcopy_pull_timeout,
                           cfg_.postcopy_pull_backoff,
                           cfg_.postcopy_recovery_interval,
                           cfg_.postcopy_max_outstanding_pulls});
    pc_dst_->attach_obs(tracer_, trk_dst_, cfg_.obs_registry);
    if (flight_ != nullptr) pc_dst_->attach_flight(flight_, flight_mig_);

    // The guest is frozen, so the received pages can be checked against its
    // memory image right now: a mismatch means pre-copy lost an update.
    rep_.memory_consistent = shadow_mem_.content_equals(domain_.memory()) &&
                             received_cpu_->version >= domain_.cpu().version;

    // Relocate the domain: rebind the frontend, install interception, restart
    // write tracking for a later incremental migration back (BM_3).
    src_.detach_domain(domain_);
    dst_.attach_domain(domain_);
    dst_.backend_for(domain_.id()).install_interceptor(pc_dst_.get());
    if (cfg_.track_for_incremental) {
      dst_.backend_for(domain_.id()).set_tracking_overhead(
          cfg_.tracking_overhead);
      dst_.backend_for(domain_.id()).start_write_tracking(cfg_.bitmap_kind);
    }
  }

  co_await sim_.delay(cfg_.resume_overhead);
  domain_.resume();
  rep_.resumed = sim_.now();
  // Post-resume bookkeeping and watcher spawns: still control-plane. The
  // scope runs to the end of the coroutine body (no further co_await).
  obs::ProfScope resume_prof{obs::ProfCategory::kOther};
  if (tracer_) {
    tracer_->instant(trk_dst_, "resumed",
                     "\"residue_blocks\": " +
                         std::to_string(pc_dst_->transferred().count_set()));
  }
  sim::LogLine(sim::LogLevel::kInfo, sim_.now(), "tpm")
      << "resumed on " << dst_.name() << " after "
      << rep_.downtime().str() << " downtime; post-copy residue="
      << pc_dst_->transferred().count_set() << " blocks";

  // Watch for the post-copy residue draining, then release the source.
  sim_.spawn(
      [](TpmMigration* self) -> sim::Task<void> {
        co_await self->pc_dst_->done_gate().wait();
        self->dst_.backend_for(self->domain_.id()).remove_interceptor();
        self->rep_.bytes_control +=
            MigrationMessage{ControlMsg{Control::kSyncComplete}}.wire_bytes();
        co_await self->rev_.send(
            MigrationMessage{ControlMsg{Control::kSyncComplete}});
      }(this),
      "tpm-sync-watch");

  // Fault tolerance: lost-message recovery (pull retries, post-push sweep)
  // and the freeze-and-copy fallback for a persistently-dead path. Both are
  // joined by run() after kSyncComplete.
  recovery_loop_ = sim_.spawn(pc_dst_->run_recovery(), "pc-recovery");
  freeze_watchdog_ = sim_.spawn(postcopy_freeze_watchdog(), "pc-freeze-watchdog");
}

sim::Task<void> TpmMigration::postcopy_freeze_watchdog() {
  if (cfg_.postcopy_freeze_deadline <= sim::Duration::zero() || !pc_dst_) {
    co_return;
  }
  const sim::Duration tick =
      cfg_.postcopy_recovery_interval > sim::Duration::zero()
          ? cfg_.postcopy_recovery_interval
          : cfg_.postcopy_freeze_deadline;
  bool was_down = false;
  sim::TimePoint down_since{};
  bool frozen = false;
  sim::TimePoint frozen_at{};
  while (!pc_dst_->complete()) {
    const bool down = fwd_.link().down() || rev_.link().down();
    if (down && !was_down) down_since = sim_.now();
    was_down = down;
    if (down && !frozen && domain_.running() &&
        sim_.now() - down_since >= cfg_.postcopy_freeze_deadline) {
      // The source has been unreachable for the whole deadline: any guest
      // read of a still-missing block would stall unboundedly. Degrade to
      // freeze-and-copy — suspend until the path (and the data) come back.
      domain_.suspend();
      frozen = true;
      frozen_at = sim_.now();
      ++rep_.postcopy_fallback_freezes;
      if (tracer_) {
        tracer_->instant(trk_dst_, "fallback_freeze",
                         "\"missing_blocks\": " +
                             std::to_string(pc_dst_->transferred().count_set()));
      }
      sim::LogLine(sim::LogLevel::kInfo, sim_.now(), "tpm")
          << "post-copy fallback: path down past deadline, froze '"
          << domain_.name() << "' on " << dst_.name();
    }
    if (!down && frozen) {
      domain_.resume();
      rep_.postcopy_fallback_freeze_time += sim_.now() - frozen_at;
      frozen = false;
      if (tracer_) tracer_->instant(trk_dst_, "fallback_thaw");
    }
    co_await sim_.delay(tick);
  }
  if (frozen) {
    domain_.resume();
    rep_.postcopy_fallback_freeze_time += sim_.now() - frozen_at;
  }
}

void TpmMigration::install_drop_policies() {
  // Post-copy data plane only: pushes and pull responses forward, pull
  // requests backward — all are retried or swept up by the recovery loop.
  // Everything else (pre-copy chunks, control, bitmap, memory) models a
  // reliable connection-oriented transport and is never dropped.
  fwd_.set_drop_policy([this](const MigrationMessage& m) {
    return pc_src_ != nullptr && m.get_if<DiskBlocksMsg>() != nullptr;
  });
  rev_.set_drop_policy([](const MigrationMessage& m) {
    return m.get_if<PullRequestMsg>() != nullptr;
  });
}

// --------------------------- Observability ---------------------------

void TpmMigration::setup_obs() {
  if (flight_ != nullptr) {
    mem_migrator_.set_flight(flight_, flight_mig_);
    // Redirty tap: fires on every tracked source-side write during pre-copy
    // (the tracking_ gate inside the backend turns it off at freeze).
    src_.backend_for(domain_.id())
        .set_redirty_hook([this](storage::BlockRange r) {
          flight_->redirty(flight_mig_, sim_.now(), r.start, r.count);
        });
  }
  tracer_ = cfg_.obs_tracer;
  if (tracer_ != nullptr) {
    trk_tpm_ = tracer_->track(src_.name(), "tpm");
    trk_mem_ = tracer_->track(src_.name(), "memory");
    trk_push_ = tracer_->track(src_.name(), "postcopy");
    trk_dst_ = tracer_->track(dst_.name(), "postcopy");
    mem_migrator_.set_trace(tracer_, trk_mem_);
  }
  if (cfg_.obs_registry != nullptr) {
    static constexpr const char* kMsgName[] = {
        "disk_blocks", "block_bitmap", "mem_pages",
        "cpu_state",   "pull_request", "control",
    };
    static_assert(std::size(kMsgName) ==
                  std::variant_size_v<MigrationMessage::Payload>);
    for (std::size_t i = 0; i < std::size(kMsgName); ++i) {
      msg_bytes_[i] = &cfg_.obs_registry->counter(
          std::string{"net.msg."} + kMsgName[i] + ".bytes");
    }
    // Count both directions; pulls and acks flow over rev_.
    const auto observe = [this](const MigrationMessage& m) {
      msg_bytes_[m.payload.index()]->add(
          static_cast<double>(m.wire_bytes()));
    };
    fwd_.set_send_observer(observe);
    rev_.set_send_observer(observe);
  }
}

void TpmMigration::emit_phase_spans() {
  if (tracer_ == nullptr) return;
  // Derived from the report's own timestamps, never re-measured: the
  // "freeze" span's duration IS rep_.downtime(), "postcopy" IS
  // postcopy_time(), and "migration" IS total_time(). Each phase span ends
  // exactly where the next begins.
  tracer_->complete(trk_tpm_, rep_.started, rep_.synchronized, "migration",
                    "\"incremental\": " +
                        std::string{rep_.incremental ? "true" : "false"});
  tracer_->complete(trk_tpm_, rep_.started, t_disk_precopy_begin_, "preparing");
  tracer_->complete(trk_tpm_, t_disk_precopy_begin_, rep_.disk_precopy_done,
                    "disk_precopy",
                    "\"iterations\": " + std::to_string(rep_.disk_iterations));
  tracer_->complete(trk_tpm_, rep_.disk_precopy_done, rep_.suspended,
                    "memory_precopy",
                    "\"iterations\": " + std::to_string(rep_.mem_iterations));
  tracer_->complete(trk_tpm_, rep_.suspended, rep_.resumed, "freeze");
  tracer_->complete(trk_tpm_, rep_.resumed, rep_.synchronized, "postcopy");
}

void TpmMigration::verify_consistency() {
  // Every destination block must either match the source's frozen copy or
  // carry a post-resume guest write (tracked in BM_3 for IM).
  const auto& src_disk = src_.vbd_for(domain_.id());
  const auto& dst_disk = dst_.vbd_for(domain_.id());
  const std::uint64_t n = src_disk.geometry().block_count;
  const bool has_bm3 = dst_.backend_for(domain_.id()).tracking();
  const DirtyBitmap bm3 =
      has_bm3 ? dst_.backend_for(domain_.id()).snapshot_dirty()
              : DirtyBitmap{cfg_.bitmap_kind, n};
  bool ok = dst_disk.geometry().block_count == n;
  // Word-wise: 64 blocks at a time, masked by BM_3's word. Pages where both
  // disks still hold the same rule answer without reading a token.
  for (std::uint64_t w = 0; ok && w * 64 < n; ++w) {
    ok = (src_disk.diff_word(dst_disk, w) & ~bm3.leaf_word(w)) == 0;
  }
  rep_.disk_consistent = ok;
}

}  // namespace vmig::core

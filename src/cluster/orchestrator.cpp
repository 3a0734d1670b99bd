#include "cluster/orchestrator.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "hypervisor/host.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/rollup.hpp"
#include "obs/tracer.hpp"
#include "vm/blk_backend.hpp"
#include "vm/domain.hpp"

namespace vmig::cluster {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;

/// The job's VBD geometry without creating a VBD: every VBD on a host
/// shares the primary disk's geometry, which is also what a lookup miss
/// would have created.
const storage::Geometry& geometry_of(const MigrationJob& j) {
  const hv::Host& from = *j.request.from;
  const storage::VirtualDisk* vbd = from.find_vbd(j.request.domain->id());
  return (vbd != nullptr ? *vbd : from.disk()).geometry();
}
}  // namespace

Orchestrator::Orchestrator(sim::Simulator& sim, core::MigrationManager& mgr,
                           OrchestratorConfig cfg)
    : sim_{sim},
      mgr_{mgr},
      cfg_{cfg},
      admission_{cfg.caps},
      policy_{make_policy(cfg.policy, cfg.max_deferrals)},
      wake_{sim} {
  if (cfg_.registry != nullptr) {
    m_submitted_ = &cfg_.registry->counter("cluster.jobs_submitted");
    m_completed_ = &cfg_.registry->counter("cluster.jobs_completed");
    m_failed_ = &cfg_.registry->counter("cluster.jobs_failed");
    m_retries_ = &cfg_.registry->counter("cluster.retries");
    m_resumed_retries_ = &cfg_.registry->counter("cluster.resumed_retries");
    m_resumed_saved_ =
        &cfg_.registry->counter("cluster.resumed_blocks_saved");
    m_deferrals_ = &cfg_.registry->counter("cluster.deferrals");
    m_running_ = &cfg_.registry->gauge("cluster.running");
    m_pending_ = &cfg_.registry->gauge("cluster.pending");
  }
  tracer_ = cfg_.tracer;
  if (tracer_ != nullptr) trk_ = tracer_->track("cluster", "orchestrator");
}

const char* to_string(SubmitRejection r) {
  switch (r) {
    case SubmitRejection::kNullArgument:
      return "null-argument";
    case SubmitRejection::kSameHost:
      return "same-host";
    case SubmitRejection::kNotConnected:
      return "not-connected";
    case SubmitRejection::kNotOnSource:
      return "not-on-source";
    default:
      return "duplicate-domain";
  }
}

JobId Orchestrator::submit(core::MigrationRequest req) {
  if (req.domain == nullptr || req.from == nullptr || req.to == nullptr) {
    throw SubmitError{SubmitRejection::kNullArgument,
                      "cluster: submit with null domain or host"};
  }
  if (req.from == req.to) {
    throw SubmitError{SubmitRejection::kSameHost,
                      "cluster: domain '" + req.domain->name() +
                          "' submitted from host '" + req.from->name() +
                          "' to itself"};
  }
  if (!req.from->connected_to(*req.to)) {
    throw SubmitError{SubmitRejection::kNotConnected,
                      "cluster: hosts '" + req.from->name() + "' and '" +
                          req.to->name() + "' are not connected"};
  }
  if (!req.from->hosts_domain(*req.domain)) {
    throw SubmitError{SubmitRejection::kNotOnSource,
                      "cluster: host '" + req.from->name() +
                          "' does not host domain '" + req.domain->name() +
                          "'"};
  }
  if (!active_domains_.insert(req.domain->id()).second) {
    throw SubmitError{SubmitRejection::kDuplicateDomain,
                      "cluster: domain '" + req.domain->name() +
                          "' already has a queued or running job"};
  }

  const JobId id = static_cast<JobId>(jobs_.size());
  MigrationJob j;
  j.id = id;
  j.request = std::move(req);
  j.submitted = sim_.now();
  j.next_eligible = sim_.now();
  jobs_.push_back(std::move(j));
  MigrationJob& job = jobs_.back();
  slots_.push_back(Slot{.source = source_of(*job.request.from)});

  // A cycle-aware scheduler needs to watch each queued domain's write rate
  // before its migration starts, so switch the block-bitmap on at submit.
  // Safe even when the eventual pass must be a full copy: the manager's
  // pairwise-validity guard decides full-vs-incremental independently of
  // who enabled tracking.
  if (cfg_.policy == SchedulePolicyKind::kWorkloadCycleAware) {
    vm::BlkBackend& be = job.request.from->backend_for(job.request.domain->id());
    if (!be.tracking()) {
      be.start_write_tracking(job.request.config.bitmap_kind);
      be.set_tracking_overhead(job.request.config.tracking_overhead);
    }
    // The policy judges each job by its measured write rate, so give the
    // sampler one poll window before the job first becomes launchable:
    // prime the sample now, measure the delta at next_eligible.
    job.next_eligible = sim_.now() + cfg_.poll_interval;
    RateSample& rs = rates_[job.request.domain->id()];
    rs.primed = true;
    rs.count = be.dirty_marks_total();
    rs.at = sim_.now();
    sampled_.push_back(id);
  }
  enqueue(job);

  if (m_submitted_ != nullptr) m_submitted_->add(1.0);
  if (cfg_.rollup != nullptr) cfg_.rollup->job_submitted();
  if (m_pending_ != nullptr) {
    m_pending_->set(static_cast<double>(jobs_.size() - terminal_) - running_);
  }
  if (tracer_ != nullptr) {
    tracer_->instant(trk_, "job_submitted",
                     "\"job\":" + std::to_string(id) + ",\"domain\":\"" +
                         job.request.domain->name() + "\"");
  }
  wake_.notify_all();
  return id;
}

std::vector<JobId> Orchestrator::submit_evacuation(
    hv::Host& from, const std::vector<hv::Host*>& dests,
    const core::MigrationConfig& cfg, int priority) {
  std::vector<JobId> ids;
  for (core::MigrationRequest& r :
       EvacuationPlanner::requests(from, dests, cfg, priority)) {
    ids.push_back(submit(std::move(r)));
  }
  return ids;
}

sim::Task<void> Orchestrator::run() {
  while (terminal_ < jobs_.size()) {
    bool deferred = false;
    {
      // One synchronous scheduling pass; the scope closes before the wait.
      // launch_ready() spawns job coroutines that run to first suspension
      // here, so their setup cost nests under the tick.
      obs::ProfScope prof{obs::ProfCategory::kOrchestratorTick};
      obs::prof_count(obs::ProfCategory::kOrchestratorTick);
      expire_deadlines();
      if (terminal_ < jobs_.size()) {
        if (cfg_.policy == SchedulePolicyKind::kWorkloadCycleAware) {
          sample_dirty_rates();
        }
        deferred = launch_ready();
      }
    }
    if (terminal_ == jobs_.size()) break;

    sim::TimePoint next = next_pending_event();
    if (deferred) {
      next = std::min(next, sim_.now() + cfg_.poll_interval);
    }
    if (next != sim::TimePoint::max()) arm_wakeup(next);
    co_await wake_.wait();
  }
  if (wake_armed_) {
    sim_.cancel(wake_timer_);
    wake_armed_ = false;
  }
}

void Orchestrator::drain() {
  sim_.spawn(run());
  sim_.run();
}

sim::Task<void> Orchestrator::job_runner(JobId id) {
  // Copy what the suspension needs out of the job record up front: holding
  // a reference into `jobs_` across the migrate() co_await would rely on
  // deque reference stability, which C2 (rightly) refuses to assume.
  const auto attempt = jobs_[id].attempts;
  // Per-job request copy and trace-span strings are control-plane work,
  // charged kOther (the IIFEs return prvalues, so construction happens
  // inside the scoped lambdas and no scope spans the co_await).
  core::MigrationRequest req = [&] {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    core::MigrationRequest r = jobs_[id].request;
    // Jobs that carry no observability of their own inherit the
    // orchestrator's, so every TPM phase span lands in one trace.
    if (r.config.obs_registry == nullptr) r.config.obs_registry = cfg_.registry;
    if (r.config.obs_tracer == nullptr) r.config.obs_tracer = cfg_.tracer;
    if (r.config.obs_recorder == nullptr) r.config.obs_recorder = cfg_.recorder;
    return r;
  }();
  obs::Span span = [&] {
    obs::ProfScope setup_prof{obs::ProfCategory::kOther};
    return obs::Span{tracer_, trk_,
                     "job " + req.domain->name() + " -> " + req.to->name(),
                     "\"job\":" + std::to_string(id) +
                         ",\"attempt\":" + std::to_string(attempt)};
  }();
  core::MigrationOutcome out = co_await mgr_.migrate(std::move(req));
  {
    obs::ProfScope finish_prof{obs::ProfCategory::kOther};
    span.set_args("\"job\":" + std::to_string(id) +
                  ",\"attempt\":" + std::to_string(attempt) + ",\"status\":\"" +
                  core::to_string(out.status) + "\"");
    span.end();
    on_finished(id, std::move(out));
  }
}

void Orchestrator::on_finished(JobId id, core::MigrationOutcome outcome) {
  MigrationJob& j = jobs_[id];
  admission_.release(*j.request.from, *j.request.to);
  --running_;
  if (cfg_.rollup != nullptr) {
    cfg_.rollup->attempt_finished(j.request.from, j.request.to);
  }
  outcome.attempts = j.attempts;
  j.outcome = std::move(outcome);

  // Resume-aware retry accounting: the report says whether this attempt was
  // seeded from a previous abort's transferred bitmap, and how many blocks
  // that saved versus a from-scratch restart.
  if (j.outcome.report.resume_applied) {
    if (m_resumed_retries_ != nullptr) m_resumed_retries_->add(1.0);
    if (m_resumed_saved_ != nullptr) {
      m_resumed_saved_->add(
          static_cast<double>(j.outcome.report.resumed_blocks_saved));
    }
    if (tracer_ != nullptr) {
      tracer_->instant(trk_, "job_resumed",
                       "\"job\":" + std::to_string(id) + ",\"blocks_saved\":" +
                           std::to_string(j.outcome.report.resumed_blocks_saved));
    }
  }

  if (j.outcome.status == core::MigrationStatus::kCompleted) {
    mark_terminal(j, JobState::kCompleted);
  } else if (j.attempts < cfg_.retry.max_attempts) {
    // Clean engine abort (link disruption / non-convergence): back off
    // exponentially and requeue. The guest kept running at the source the
    // whole time, so a retry is always safe.
    j.state = JobState::kPending;
    j.next_eligible = sim_.now() + cfg_.retry.backoff_after(j.attempts);
    enqueue(j);
    ++retries_;
    if (m_retries_ != nullptr) m_retries_->add(1.0);
    if (cfg_.rollup != nullptr) cfg_.rollup->job_retry(j.request.from);
    if (tracer_ != nullptr) {
      tracer_->instant(trk_, "job_retry_scheduled",
                       "\"job\":" + std::to_string(id) + ",\"attempt\":" +
                           std::to_string(j.attempts) + ",\"status\":\"" +
                           core::to_string(j.outcome.status) + "\"");
    }
  } else {
    mark_terminal(j, JobState::kFailed);
  }

  if (m_running_ != nullptr) m_running_->set(running_);
  if (m_pending_ != nullptr) {
    m_pending_->set(static_cast<double>(jobs_.size() - terminal_) - running_);
  }
  wake_.notify_all();
}

bool Orchestrator::launch_ready() {
  const ReadyOrder before;
  for (;;) {
    if (cfg_.policy == SchedulePolicyKind::kFifo) {
      // The global queue-order minimum over admissible jobs is the minimum
      // over open sources of each one's first admissible job.
      const ReadyKey* best = nullptr;
      for (const Source& src : sources_) {
        if (src.ready.empty() || !admission_.source_open(*src.host)) continue;
        for (const ReadyKey& k : src.ready) {
          ++jobs_visited_;
          const MigrationJob& j = jobs_[k.second];
          if (!admission_.admissible(*j.request.from, *j.request.to)) continue;
          if (best == nullptr || before(k, *best)) best = &k;
          break;
        }
      }
      if (best == nullptr) return false;
      launch(jobs_[best->second]);
      continue;
    }

    // Smallest-dirty-first and cycle-aware rank views of every admissible
    // ready job, presented in job order.
    admissible_.clear();
    for (const Source& src : sources_) {
      if (src.ready.empty() || !admission_.source_open(*src.host)) continue;
      for (const ReadyKey& k : src.ready) {
        ++jobs_visited_;
        const MigrationJob& j = jobs_[k.second];
        if (admission_.admissible(*j.request.from, *j.request.to)) {
          admissible_.push_back(j.id);
        }
      }
    }
    if (admissible_.empty()) return false;
    std::sort(admissible_.begin(), admissible_.end());
    eligible_.clear();
    for (const JobId id : admissible_) eligible_.push_back(view_of(jobs_[id]));

    const std::size_t pick = policy_->pick(eligible_);
    if (pick == SchedulerPolicy::kDefer) {
      // The policy looked at every launchable job and chose to wait for a
      // cooler workload cycle; note the pass-over on each one so the
      // forced-through budget eventually unblocks a permanently-hot VM.
      for (const JobView& v : eligible_) ++jobs_[v.job->id].deferrals;
      ++deferrals_;
      if (m_deferrals_ != nullptr) m_deferrals_->add(1.0);
      if (cfg_.rollup != nullptr) cfg_.rollup->deferral();
      return true;
    }
    launch(jobs_[eligible_[pick].job->id]);
  }
}

void Orchestrator::launch(MigrationJob& j) {
  dequeue(j);
  admission_.acquire(*j.request.from, *j.request.to);
  j.state = JobState::kRunning;
  ++j.attempts;
  ++running_;
  peak_running_ = std::max(peak_running_, running_);
  if (cfg_.rollup != nullptr) {
    cfg_.rollup->attempt_started(j.request.from, j.request.to);
  }
  if (m_running_ != nullptr) m_running_->set(running_);
  if (m_pending_ != nullptr) {
    m_pending_->set(static_cast<double>(jobs_.size() - terminal_) - running_);
  }
  sim_.spawn(job_runner(j.id));
}

void Orchestrator::expire_deadlines() {
  due_.swap(overdue_);
  overdue_.clear();
  jobs_visited_ += due_.size();
  while (!timers_.empty() && timers_.top().at <= sim_.now()) {
    const Timer t = timers_.top();
    timers_.pop();
    ++jobs_visited_;
    const MigrationJob& j = jobs_[t.job];
    Slot& s = slots_[t.job];
    if (t.deadline) {
      s.deadline_armed = false;
      if (j.state == JobState::kPending) due_.push_back(t.job);
    } else if (s.queue == Queue::kTimer && j.next_eligible == t.at) {
      make_ready(j);  // an expiry below takes it out again
    }
  }

  // Expire in job order, as a scan over the job table would.
  std::sort(due_.begin(), due_.end());
  due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
  for (const JobId id : due_) {
    MigrationJob& j = jobs_[id];
    if (j.state != JobState::kPending) continue;
    j.outcome.status = core::MigrationStatus::kDeadlineExpired;
    j.outcome.attempts = j.attempts;
    mark_terminal(j, JobState::kFailed);
    if (m_pending_ != nullptr) {
      m_pending_->set(static_cast<double>(jobs_.size() - terminal_) - running_);
    }
  }
  due_.clear();
}

void Orchestrator::sample_dirty_rates() {
  // Every pending job, every pass: the rate is a delta between consecutive
  // samples, so skipping a pass would change it. Terminal jobs retire here.
  std::size_t keep = 0;
  for (const JobId id : sampled_) {
    ++jobs_visited_;
    const MigrationJob& j = jobs_[id];
    if (j.terminal()) continue;
    sampled_[keep++] = id;
    if (j.state != JobState::kPending) continue;
    const vm::DomainId d = j.request.domain->id();
    const vm::BlkBackend* be = j.request.from->find_backend(d);
    // Marks (not set-bits): a guest rewriting one hot window keeps a flat
    // set-bit count but a high re-dirty rate, and re-dirtying is exactly
    // what defeats pre-copy convergence.
    const std::uint64_t count =
        be != nullptr && be->tracking() ? be->dirty_marks_total() : 0;

    RateSample& rs = rates_[d];
    if (!rs.primed || count < rs.count) {
      // First observation, or tracking restarted (a migration attempt ran
      // in between): re-prime rather than report a bogus negative rate.
      rs.primed = true;
      rs.blocks_per_s = 0.0;
    } else if (sim_.now() > rs.at) {
      rs.blocks_per_s = static_cast<double>(count - rs.count) /
                        (sim_.now() - rs.at).to_seconds();
    }
    rs.count = count;
    rs.at = sim_.now();
  }
  sampled_.resize(keep);
}

JobView Orchestrator::view_of(const MigrationJob& j) const {
  JobView v;
  v.job = &j;
  v.dirty_blocks = dirty_blocks_of(j);
  if (auto it = rates_.find(j.request.domain->id()); it != rates_.end()) {
    v.dirty_blocks_per_s = it->second.blocks_per_s;
  }
  const net::Link& link = j.request.from->link_to(*j.request.to);
  v.link_blocks_per_s = link.params().bandwidth_mibps * kMiB /
                        static_cast<double>(geometry_of(j).block_size);
  return v;
}

std::uint64_t Orchestrator::dirty_blocks_of(const MigrationJob& j) const {
  const hv::Host& from = *j.request.from;
  const vm::BlkBackend* be = from.find_backend(j.request.domain->id());
  if (be != nullptr && be->tracking()) return be->dirty_block_count();
  // Nothing tracked: the first pass copies the whole device.
  return geometry_of(j).block_count;
}

void Orchestrator::arm_wakeup(sim::TimePoint t) {
  if (wake_armed_ && wake_at_ <= t) return;
  if (wake_armed_) sim_.cancel(wake_timer_);
  wake_armed_ = true;
  wake_at_ = t;
  wake_timer_ = sim_.schedule_at(t, [this] {
    wake_armed_ = false;
    wake_.notify_all();
  });
}

sim::TimePoint Orchestrator::next_pending_event() {
  while (!timers_.empty()) {
    const Timer& t = timers_.top();
    ++jobs_visited_;
    const MigrationJob& j = jobs_[t.job];
    Slot& s = slots_[t.job];
    // A running job's deadline is not waited on; it is re-armed if the job
    // comes back to the queue (enqueue).
    const bool live =
        j.state == JobState::kPending &&
        (t.deadline || (s.queue == Queue::kTimer && j.next_eligible == t.at));
    if (live) return t.at;
    if (t.deadline) s.deadline_armed = false;
    timers_.pop();
  }
  return sim::TimePoint::max();
}

std::uint32_t Orchestrator::source_of(const hv::Host& host) {
  const auto [it, added] = source_index_.try_emplace(
      &host, static_cast<std::uint32_t>(sources_.size()));
  if (added) sources_.push_back(Source{.host = &host, .ready = {}});
  return it->second;
}

void Orchestrator::enqueue(const MigrationJob& j) {
  Slot& s = slots_[j.id];
  if (j.next_eligible <= sim_.now()) {
    make_ready(j);
  } else {
    s.queue = Queue::kTimer;
    timers_.push(Timer{.at = j.next_eligible, .job = j.id});
  }
  if (j.request.deadline > sim::Duration::zero() && !s.deadline_armed) {
    const sim::TimePoint dl = j.submitted + j.request.deadline;
    if (dl > sim_.now()) {
      timers_.push(Timer{.at = dl, .job = j.id, .deadline = true});
      s.deadline_armed = true;
    } else {
      overdue_.push_back(j.id);
    }
  }
}

void Orchestrator::make_ready(const MigrationJob& j) {
  Slot& s = slots_[j.id];
  s.queue = Queue::kReady;
  sources_[s.source].ready.emplace(j.request.priority, j.id);
}

void Orchestrator::dequeue(const MigrationJob& j) {
  Slot& s = slots_[j.id];
  if (s.queue == Queue::kReady) {
    sources_[s.source].ready.erase(ReadyKey{j.request.priority, j.id});
  }
  s.queue = Queue::kNone;
}

void Orchestrator::mark_terminal(MigrationJob& j, JobState state) {
  dequeue(j);
  active_domains_.erase(j.request.domain->id());
  j.state = state;
  j.finished = sim_.now();
  completion_order_.push_back(j.id);
  ++terminal_;
  if (state == JobState::kCompleted) {
    ++completed_;
    if (m_completed_ != nullptr) m_completed_->add(1.0);
  } else {
    ++failed_;
    if (m_failed_ != nullptr) m_failed_->add(1.0);
  }
  if (tracer_ != nullptr) {
    tracer_->instant(trk_, "job_terminal",
                     "\"job\":" + std::to_string(j.id) + ",\"state\":\"" +
                         to_string(j.state) + "\",\"status\":\"" +
                         core::to_string(j.outcome.status) + "\"");
  }
  if (cfg_.rollup != nullptr) {
    obs::RollupJobClose close;
    close.completed = state == JobState::kCompleted;
    // Exactly vmig_analyze's SLO predicate: a deadline of zero means no SLO;
    // otherwise the job must complete within it.
    const std::int64_t deadline_ns = j.request.deadline.ns();
    const std::int64_t total_ns = (j.finished - j.submitted).ns();
    close.slo_miss =
        deadline_ns > 0 && !(close.completed && total_ns <= deadline_ns);
    close.bytes = j.outcome.report.total_bytes();
    close.downtime_ns = j.outcome.report.downtime().ns();
    close.dirty_blocks = j.outcome.report.blocks_retransferred +
                         j.outcome.report.residual_dirty_blocks;
    cfg_.rollup->job_terminal(j.request.from, j.request.to, close);
  }
  if (cfg_.recorder != nullptr) {
    obs::JobRecord rec;
    rec.job = j.id;
    rec.domain = j.request.domain->name();
    rec.from = j.request.from->name();
    rec.to = j.request.to->name();
    rec.status = core::to_string(j.outcome.status);
    rec.submitted_ns = j.submitted.ns();
    rec.finished_ns = j.finished.ns();
    rec.deadline_ns = j.request.deadline.ns();
    rec.attempts = static_cast<std::uint32_t>(j.attempts);
    rec.deferrals = static_cast<std::uint32_t>(j.deferrals);
    rec.downtime_ns = j.outcome.report.downtime().ns();
    rec.total_ns = (j.finished - j.submitted).ns();
    rec.resume_applied = j.outcome.report.resume_applied;
    rec.resumed_blocks_saved = j.outcome.report.resumed_blocks_saved;
    cfg_.recorder->job_record(std::move(rec));
  }
}

}  // namespace vmig::cluster

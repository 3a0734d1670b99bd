#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/admission.hpp"
#include "cluster/backoff.hpp"
#include "cluster/evacuation.hpp"
#include "cluster/job.hpp"
#include "cluster/scheduler.hpp"
#include "core/migration_manager.hpp"
#include "simcore/notifier.hpp"
#include "simcore/simulator.hpp"

namespace vmig::obs {
class Counter;
class FlightRecorder;
class Gauge;
class Registry;
class Rollup;
class Tracer;
}  // namespace vmig::obs

namespace vmig::cluster {

/// Orchestrator tunables: the admission caps, retry policy, scheduling
/// policy, and observability sinks shared by every job.
struct OrchestratorConfig {
  AdmissionCaps caps{};
  RetryPolicy retry{};
  SchedulePolicyKind policy = SchedulePolicyKind::kFifo;
  /// Cadence at which dirty rates are re-sampled and a deferring policy is
  /// re-evaluated (also the granularity of deadline expiry while idle).
  sim::Duration poll_interval = sim::Duration::millis(500);
  /// Deferral budget per job for WorkloadCycleAwarePolicy; once exceeded
  /// the job is forced through regardless of its dirty rate.
  int max_deferrals = 64;
  /// When set, the orchestrator registers cluster.* metrics / emits per-job
  /// spans, and injects both sinks into every job config that has none —
  /// so each job's TPM phase spans land in the same trace.
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
  /// When set, injected into every job config that has none (so each job's
  /// engine events land in one flight record) and fed a terminal JobRecord
  /// per job — the per-job SLO rows of `vmig_analyze`.
  obs::FlightRecorder* recorder = nullptr;
  /// When set, fed the fleet-rollup job lifecycle: submissions, attempt
  /// start/finish per host pair, retries, deferrals, and a terminal close
  /// (bytes, downtime, SLO verdict, dirty blocks) per job. Hosts must be
  /// registered with the rollup (ClusterTestbed::attach_rollup does this)
  /// before their jobs reach a terminal state.
  obs::Rollup* rollup = nullptr;
};

/// Why Orchestrator::submit refused a request.
enum class SubmitRejection : std::uint8_t {
  kNullArgument,     ///< null domain, source or destination
  kSameHost,         ///< source and destination are the same host
  kNotConnected,     ///< no link (eager or lazy mesh) from source to dest
  kNotOnSource,      ///< the source host does not host the domain
  kDuplicateDomain,  ///< the domain already has a queued or running job
};

const char* to_string(SubmitRejection r);

/// Thrown by Orchestrator::submit for a request it cannot run. Derives from
/// std::invalid_argument, so callers catching that keep working.
class SubmitError : public std::invalid_argument {
 public:
  SubmitError(SubmitRejection reason, const std::string& what)
      : std::invalid_argument(what), reason_{reason} {}
  SubmitRejection reason() const noexcept { return reason_; }

 private:
  SubmitRejection reason_;
};

/// Cluster migration orchestrator: accepts a queue of MigrationRequests and
/// drives every one to a terminal state across N hosts — admission-
/// controlled concurrency (per source, per destination, per link), a
/// pluggable scheduling policy, and retry with exponential backoff on
/// clean engine aborts (link disruption, non-convergence).
///
/// Single-threaded and deterministic like everything above the simulator:
/// the same job set on the same seed yields byte-identical completion
/// order, outcomes, and exported traces.
///
/// A scheduling pass touches only the jobs whose state changed plus the
/// head of each open source's ready queue (docs/CLUSTER.md, "Scheduling
/// cost"); terminal and running jobs are in no queue.
///
/// Lifetime: declare after the Simulator and MigrationManager and keep
/// alive until the simulator drains; run() and the per-job runners are root
/// tasks referencing this object.
///
/// Usage:
///   Orchestrator orch{sim, mgr, {.caps = {...}, .policy = ...}};
///   orch.submit({.domain = &vm, .from = &a, .to = &b, .config = cfg});
///   orch.submit_evacuation(doomed, {&h1, &h2}, cfg);
///   orch.drain();               // or: sim.spawn(orch.run()); sim.run();
class Orchestrator {
 public:
  Orchestrator(sim::Simulator& sim, core::MigrationManager& mgr,
               OrchestratorConfig cfg = {});

  /// Enqueue one migration. Throws SubmitError (an std::invalid_argument)
  /// on a null domain/from/to, from == to, an unconnected host pair, a
  /// domain `from` does not host, or a domain that already has a
  /// non-terminal job. May be called while run() is active (e.g. from a
  /// workload script reacting to events).
  JobId submit(core::MigrationRequest req);

  /// Plan a drain of `from` over the connected `dests` by free capacity
  /// (EvacuationPlanner) and submit every resulting job.
  std::vector<JobId> submit_evacuation(hv::Host& from,
                                       const std::vector<hv::Host*>& dests,
                                       const core::MigrationConfig& cfg,
                                       int priority = 0);

  /// Drive all submitted jobs to a terminal state; returns when the queue
  /// is empty and no attempt is in flight. Spawn as a root task.
  sim::Task<void> run();

  /// Convenience: spawn run() and run the simulator until it goes idle.
  void drain();

  // ---- Introspection (stable across run()) ----
  const MigrationJob& job(JobId id) const { return jobs_.at(id); }
  std::size_t job_count() const noexcept { return jobs_.size(); }
  bool all_terminal() const noexcept { return terminal_ == jobs_.size(); }
  /// Jobs in the order they reached a terminal state (completed or failed).
  const std::vector<JobId>& completion_order() const noexcept {
    return completion_order_;
  }
  std::uint64_t jobs_completed() const noexcept { return completed_; }
  std::uint64_t jobs_failed() const noexcept { return failed_; }
  /// Attempts re-enqueued through the backoff layer.
  std::uint64_t retries() const noexcept { return retries_; }
  /// Times a policy passed over an eligible job set (cycle-aware deferral).
  std::uint64_t deferrals() const noexcept { return deferrals_; }
  /// High-water mark of concurrently-running migrations.
  int peak_running() const noexcept { return peak_running_; }
  const AdmissionControl& admission() const noexcept { return admission_; }
  /// Job records touched by scheduling passes so far: timer-heap entries
  /// popped or peeked, ready-queue entries examined, and jobs sampled for
  /// their dirty rate. Deterministic; it grows linearly with the job count
  /// under FIFO (docs/CLUSTER.md).
  std::uint64_t jobs_visited() const noexcept { return jobs_visited_; }

 private:
  /// Where a pending job waits: in the timer heap until its backoff ends,
  /// then in its source's ready queue. Running and terminal jobs are in
  /// neither.
  enum class Queue : std::uint8_t { kNone, kTimer, kReady };
  /// Scheduling bookkeeping per job, indexed by JobId alongside jobs_.
  struct Slot {
    std::uint32_t source = 0;     ///< index into sources_
    Queue queue = Queue::kNone;
    bool deadline_armed = false;  ///< the job's deadline entry is in timers_
  };
  /// Ready-queue key (priority, id), ordered priority descending, then id
  /// ascending: the queue order every policy breaks ties by.
  using ReadyKey = std::pair<int, JobId>;
  struct ReadyOrder {
    bool operator()(const ReadyKey& a, const ReadyKey& b) const noexcept {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    }
  };
  /// Pending jobs past their backoff, per source host, in queue order.
  struct Source {
    const hv::Host* host = nullptr;
    std::set<ReadyKey, ReadyOrder> ready;
  };
  /// A backoff end (`deadline` false) or a deadline. Entries are dropped
  /// lazily once their job no longer waits on them; ties pop in job order.
  struct Timer {
    sim::TimePoint at{};
    JobId job = 0;
    bool deadline = false;
    bool operator>(const Timer& o) const noexcept {
      if (at != o.at) return at > o.at;
      if (job != o.job) return job > o.job;
      return deadline > o.deadline;
    }
  };

  sim::Task<void> job_runner(JobId id);
  void on_finished(JobId id, core::MigrationOutcome outcome);
  /// Launch every job the caps and policy allow right now. Returns true if
  /// the policy deferred the launchable set.
  bool launch_ready();
  void launch(MigrationJob& j);
  /// Pop every due timer: fail pending jobs whose deadline has passed (in
  /// job order), then move jobs whose backoff has ended to the ready index.
  void expire_deadlines();
  /// Update per-domain dirty-rate samples for pending jobs. Only the
  /// cycle-aware policy reads them, so only it calls this.
  void sample_dirty_rates();
  JobView view_of(const MigrationJob& j) const;
  std::uint64_t dirty_blocks_of(const MigrationJob& j) const;
  /// Arm (or tighten) the wakeup timer to fire at `t`.
  void arm_wakeup(sim::TimePoint t);
  /// Next instant a pending job's backoff or deadline needs service, or
  /// TimePoint::max() if none. Drops stale heap entries on the way.
  sim::TimePoint next_pending_event();
  void mark_terminal(MigrationJob& j, JobState state);
  /// Index of `host`'s ready queue, creating it on first use.
  std::uint32_t source_of(const hv::Host& host);
  /// File a pending job: ready now or at its backoff end, plus a deadline
  /// entry if it has a deadline and none is armed.
  void enqueue(const MigrationJob& j);
  void make_ready(const MigrationJob& j);
  /// Take a job out of whichever queue holds it.
  void dequeue(const MigrationJob& j);

  sim::Simulator& sim_;
  core::MigrationManager& mgr_;
  OrchestratorConfig cfg_;
  AdmissionControl admission_;
  std::unique_ptr<SchedulerPolicy> policy_;

  std::deque<MigrationJob> jobs_;  ///< indexed by JobId; references stable
  std::vector<JobId> completion_order_;
  std::size_t terminal_ = 0;
  int running_ = 0;
  int peak_running_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t deferrals_ = 0;

  /// Dirty-rate sampler state, keyed by domain id (ordered: deterministic).
  struct RateSample {
    sim::TimePoint at{};
    std::uint64_t count = 0;
    double blocks_per_s = 0.0;
    bool primed = false;
  };
  std::map<vm::DomainId, RateSample> rates_;

  std::vector<Slot> slots_;
  std::vector<Source> sources_;  ///< in order of first submission
  std::unordered_map<const hv::Host*, std::uint32_t> source_index_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  /// Jobs requeued after their deadline passed while they ran; expired by
  /// the next scheduling pass.
  std::vector<JobId> overdue_;
  /// Non-terminal jobs in id order (cycle-aware policy only).
  std::vector<JobId> sampled_;
  /// Domains with a non-terminal job (lookup only).
  std::unordered_set<vm::DomainId> active_domains_;
  std::uint64_t jobs_visited_ = 0;
  // Scratch reused across passes.
  std::vector<JobId> due_;
  std::vector<JobId> admissible_;
  std::vector<JobView> eligible_;

  sim::Notifier wake_;
  bool wake_armed_ = false;
  sim::TimePoint wake_at_{};
  sim::Simulator::TimerId wake_timer_ = 0;

  // Observability (null = off).
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_resumed_retries_ = nullptr;
  obs::Counter* m_resumed_saved_ = nullptr;
  obs::Counter* m_deferrals_ = nullptr;
  obs::Gauge* m_running_ = nullptr;
  obs::Gauge* m_pending_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trk_ = 0;  ///< "cluster/orchestrator" track
};

}  // namespace vmig::cluster

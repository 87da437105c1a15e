// The workload manager façade ("our Slurm").
//
// Owns the cluster, the job table and the pending queue; exposes exactly
// the operations the paper's methodology needs:
//  - job lifecycle: submit / cancel / update / finish, with a backfill
//    scheduling pass after every state change that can affect placements;
//  - the DMR entry point dmr_check(): runs the Algorithm-1 policy and, on
//    "expand", the full Slurm resize protocol (resizer job B with a
//    dependency on A and max priority -> wait for it to run -> zero-size
//    update detaches its nodes -> cancel B -> grow A);
//  - shrink is two-phase (begin marks nodes draining, complete releases
//    them once the runtime's drain ACKs arrive), matching the paper's
//    synchronized workflow with a management node collecting ACKs.
//
// Scheduling is *incremental*: the manager maintains pending/running
// index lists and snapshot caches, and a schedule() call runs a real
// pass only when a preceding event could have changed placements (job
// end, shrink completion, submission, queue reorder).  The
// schedule_requests / schedule_passes counters expose the saving; at
// workload scale (thousands of jobs, most of them long finished) this
// turns the former whole-table O(n log n) rebuild per mutation into
// work proportional to the live job set.
//
// The manager is clock-agnostic: every mutation takes `now`, so the same
// code serves the discrete-event simulation and the real-time examples.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "dmr/rms.hpp"
#include "obs/event.hpp"
#include "rms/cluster.hpp"
#include "rms/job.hpp"
#include "rms/policy.hpp"
#include "rms/scheduler.hpp"

namespace dmr::chk {
struct TestBackdoor;
}

namespace dmr::rms {

struct RmsConfig {
  int nodes = 20;
  SchedulerConfig scheduler;
  /// Algorithm 1 line 18: boost the queued job that triggered a shrink
  /// to maximum priority.  Disabled only by the policy ablation bench.
  bool shrink_priority_boost = true;
  /// Heterogeneous layout; when non-empty it overrides `nodes` (the
  /// total is the sum of the partition sizes).
  std::vector<Partition> partitions = {};
  /// First id this manager assigns.  A fed::Federation gives each member
  /// a disjoint range so job ids stay globally unique and route back to
  /// their cluster without a translation table.
  JobId first_job_id = 1;
};

/// Result of a DMR reconfiguring-point negotiation (public API type).
using DmrOutcome = ::dmr::Outcome;

/// The reference implementation of the public `dmr::Rms` interface.
class Manager : public ::dmr::Rms {
 public:
  /// `member` is this manager's index in its federation (0 standalone);
  /// it is stamped on every event the manager emits.
  explicit Manager(RmsConfig config, int member = 0);

  // --- job lifecycle -------------------------------------------------------

  JobId submit(JobSpec spec, double now) override;
  void cancel(JobId id, double now) override;
  /// Slurm-style "update job": change the pending/running node request.
  void update_requested_nodes(JobId id, int nodes, double now);
  /// The job's processes exited; release resources and reschedule.
  void job_finished(JobId id, double now) override;
  /// Run a scheduling pass if a placement-relevant event occurred since
  /// the last one; returns ids of jobs started (internal resizer jobs
  /// included).  A no-op (and an empty result) otherwise.
  std::vector<JobId> schedule(double now) override;

  // --- DMR (Sections IV-V) ---------------------------------------------------

  /// Synchronous reconfiguring point: policy decision + immediate
  /// application (dmr_check_status).
  DmrOutcome dmr_check(JobId id, const DmrRequest& request,
                       double now) override;
  /// Policy decision only, no side effects (first half of the
  /// asynchronous dmr_icheck_status: the action is applied at the *next*
  /// reconfiguring point, possibly against a changed system state).
  PolicyDecision dmr_decide(JobId id, const DmrRequest& request,
                            double now) override;
  /// Apply a previously negotiated action.  Expansion re-runs the resizer
  /// protocol and may abort; shrinking always succeeds.  Reproduces the
  /// paper's "outdated decision" behaviour of Section VIII-C.
  DmrOutcome dmr_apply(JobId id, const PolicyDecision& decision,
                       double now) override;
  /// Complete a shrink after the drain ACKs: releases draining nodes,
  /// reschedules (the boosted job should start here).
  void complete_shrink(JobId id, double now) override;
  /// Abort a shrink (failed drain): undrain, keep the allocation.
  void abort_shrink(JobId id, double now) override;

  // --- protocol pieces (exposed for tests; dmr_check composes them) ---------

  JobId submit_resizer(JobId parent, int extra_nodes, double now);
  /// Zero-size update + cancel: detach the resizer's nodes and hand them
  /// to the parent job.  Returns the transferred node ids.
  std::vector<int> harvest_resizer(JobId resizer, double now);

  // --- live reconfiguration (service-mode what-if hooks) ---------------------

  /// Grow the cluster by `count` idle nodes in `partition` (the first
  /// partition when empty; unknown names throw).  Marks placements dirty
  /// so the next schedule() sees the new capacity.
  void add_nodes(int count, const std::string& partition, double now);
  /// Flip Algorithm 1's shrink priority boost at runtime.
  void set_shrink_priority_boost(bool enabled) {
    config_.shrink_priority_boost = enabled;
  }

  // --- queries ---------------------------------------------------------------

  const Job& job(JobId id) const;
  /// Public-API snapshot of a job (hosts resolved to node names, the
  /// surviving set excluding draining nodes).
  ::dmr::JobView query(JobId id) const override;
  const Cluster& cluster() const { return cluster_; }
  int idle_nodes() const { return cluster_.idle(); }
  /// Eligible pending (non-internal) jobs in priority order.  Served
  /// from a cache invalidated only by queue-changing events.
  const std::vector<const Job*>& pending_snapshot(double now) const;
  /// The same jobs in unspecified order: callers that only aggregate
  /// (federation routing sums, service queue depth) skip the
  /// priority-sort the age-moving `now` would force on every call.
  const std::vector<const Job*>& pending_unsorted() const;
  const std::vector<const Job*>& running_snapshot() const;
  /// All user-visible jobs (submission order).
  const std::vector<const Job*>& jobs() const { return user_jobs_; }
  /// True when no user job is pending or running.
  bool all_done() const { return unfinished_user_jobs_ == 0; }
  /// Nodes held by running user jobs, and how many of those run
  /// (resizer pseudo-jobs excluded).
  int allocated_nodes() const { return user_allocated_nodes_; }
  int running_jobs() const { return user_running_jobs_; }

  // --- observation -----------------------------------------------------------

  /// Subscribe `sink` to this manager's lifecycle events (see
  /// obs::EventKind); it must outlive the manager's use.
  void attach(obs::Sink& sink) { sinks_.attach(sink); }

  /// Counters for the evaluation section.
  struct Counters {
    long long expands = 0;
    long long shrinks = 0;
    long long no_actions = 0;
    long long aborted_expands = 0;
    long long checks = 0;
    /// schedule() invocations vs. the passes that actually ran, plus the
    /// passes the incremental design avoided: requests short-circuited
    /// because no placement-relevant event occurred, and the
    /// fixpoint-confirming pass the former design ran after every
    /// productive round.
    long long schedule_requests = 0;
    long long schedule_passes = 0;
    long long schedule_passes_saved = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  /// Test-only state corruption for auditor failure-path tests.
  friend struct ::dmr::chk::TestBackdoor;

  static constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();
  /// Dense index of `id` in jobs_ (kNoJob when this manager never issued
  /// it).  Ids are assigned sequentially from config_.first_job_id and
  /// jobs are never erased, so the subtraction is the whole lookup.
  std::size_t job_index(JobId id) const {
    const JobId first = config_.first_job_id;
    if (id < first) return kNoJob;
    const std::size_t index = static_cast<std::size_t>(id - first);
    return index < jobs_.size() ? index : kNoJob;
  }
  const Job* find_job(JobId id) const {
    const std::size_t index = job_index(id);
    return index == kNoJob ? nullptr : &jobs_[index];
  }
  Job& job_mutable(JobId id);
  DmrOutcome dmr_apply_impl(JobId id, const PolicyDecision& decision,
                            double now);
  void rescale_time_limit(Job& job, double now, double ratio);
  void start_job(Job& job, double now);
  void finish_job(Job& job, double now, JobState final_state);
  void cancel_dependents(JobId parent, double now);
  bool eligible(const Job& job) const;
  /// Emit a `kind` event about `job` when some sink wants it.
  void emit(obs::EventKind kind, JobId job, double now, int old_size = 0,
            int new_size = 0, Action action = Action::None,
            bool aborted = false) const {
    if (!sinks_.wants(kind)) return;
    sinks_.emit({.kind = kind, .job = job, .member = member_, .now = now,
                 .old_size = old_size, .new_size = new_size, .manager = this,
                 .action = action, .aborted = aborted});
  }
  void report_blocked(const Job& job, double now, obs::BlockReason cause,
                      JobId blocker) const {
    sinks_.emit({.kind = obs::EventKind::kBlocked, .job = job.id,
                 .member = member_, .now = now, .manager = this,
                 .cause = cause, .blocker = blocker});
  }
  /// A queue/allocation event happened: placements may change and the
  /// snapshot caches are stale.
  void mark_queue_changed();
  void remove_from(std::vector<Job*>& list, const Job* job);

  RmsConfig config_;
  Cluster cluster_;
  /// Dense job table indexed by `id - config_.first_job_id` (ids are
  /// sequential, jobs never erased).  A deque so element addresses stay
  /// stable for the Job* index lists below while the table grows.
  std::deque<Job> jobs_;
  JobId next_id_;
  Counters counters_;
  int member_;
  obs::SinkList sinks_;

  // --- live-set indices (the incremental-scheduling state) -----------------
  std::vector<Job*> pending_jobs_;  // every pending job, resizers included
  std::vector<Job*> running_jobs_;  // every running job, resizers included
  std::vector<const Job*> user_jobs_;  // non-internal, submission order
  /// Per-job dependent lists, parallel to jobs_ (same dense index).
  std::deque<std::vector<JobId>> dependents_;
  long long unfinished_user_jobs_ = 0;
  /// Exact (allocated nodes, running jobs) over non-internal running
  /// jobs, maintained at every allocation mutation so an alloc-changed
  /// event needs no running-set scan.
  int user_allocated_nodes_ = 0;
  int user_running_jobs_ = 0;
  bool placements_dirty_ = true;
  /// Scratch for schedule()'s per-pass snapshot; member so the pending/
  /// running vector capacities survive across the two passes every
  /// replayed job triggers.
  ScheduleView view_scratch_;
  std::uint64_t queue_version_ = 1;
  mutable std::uint64_t pending_cache_version_ = 0;
  mutable double pending_cache_now_ = 0.0;
  mutable bool pending_cache_sorted_ = false;
  mutable std::vector<const Job*> pending_cache_;
  mutable std::uint64_t running_cache_version_ = 0;
  mutable std::vector<const Job*> running_cache_;
};

}  // namespace dmr::rms

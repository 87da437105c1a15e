// The workload manager façade ("our Slurm").
//
// Owns the cluster, the job table and the pending queue; exposes exactly
// the operations the paper's methodology needs:
//  - job lifecycle: submit / cancel / finish, with a backfill
//    scheduling pass after every state change that can affect placements;
//  - the DMR entry point dmr_check(): runs the Algorithm-1 policy and, on
//    "expand", the full Slurm resize protocol (resizer job B at max
//    priority -> wait for it to run -> zero-size update detaches its
//    nodes -> cancel B -> grow A).  Slurm submits B with a dependency on
//    A so that B runs only while A runs; here that holds because A's
//    dmr_apply both submits B and resolves it (harvest or cancel).  So B
//    lives in one slot beside the job table, not in it: user jobs own
//    the id sequence, and each B takes the next id down from the top of
//    the manager's range, which resolves only until dmr_apply returns;
//  - shrink is two-phase (begin marks nodes draining, complete releases
//    them once the runtime's drain ACKs arrive), matching the paper's
//    synchronized workflow with a management node collecting ACKs.
//
// Scheduling is *incremental*: the manager maintains pending/running
// index lists, and a schedule() call runs a real pass only when a
// preceding event could have changed placements (job end, shrink
// completion, submission, queue reorder).  The schedule_requests /
// schedule_passes counters expose the saving; at workload scale
// (thousands of jobs, most of them long finished) this turns the former
// whole-table O(n log n) rebuild per mutation into work proportional to
// the live job set.
//
// The pending list is kept in SubmitOrder (boosted first, then submit
// time, then id) as jobs enter, leave and are boosted.  That is the
// queue's one order and it never moves with time, so scheduling passes
// and Algorithm 1 read the list itself: no sort and no copy per check or
// pass.
//
// The manager is clock-agnostic: every mutation takes `now`, so the same
// code serves the discrete-event simulation and the real-time examples.
#pragma once

#include <limits>
#include <memory>
#include <ranges>
#include <span>
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

/// Ids per manager: member m's user jobs count up from
/// m * kClusterIdStride + 1, and its resizers down from the top of that
/// range, (m + 1) * kClusterIdStride.  Disjoint ranges keep a
/// federation's ids globally unique and route each back to its member
/// without a translation table.
constexpr JobId kClusterIdStride = 1'000'000'000;

struct RmsConfig {
  int nodes = 20;
  SchedulerConfig scheduler;
  /// Algorithm 1 line 18: boost the queued job that triggered a shrink
  /// to maximum priority.  Disabled only by the policy ablation bench.
  bool shrink_priority_boost = true;
  /// Heterogeneous layout; when non-empty it overrides `nodes` (the
  /// total is the sum of the partition sizes).
  std::vector<Partition> partitions = {};
};

/// Result of a DMR reconfiguring-point negotiation (public API type).
using ::dmr::Outcome;

/// The manager's dense job table: fixed blocks of raw storage, each job
/// constructed in place when it is issued.  Addresses stay stable while
/// the table grows, and it grows one block of kBlockJobs jobs at a time
/// (~51 KB, below glibc's 128 KiB mmap threshold, so a freed block is
/// reused from the heap).
class JobTable {
 public:
  JobTable() = default;
  JobTable(const JobTable&) = delete;
  JobTable& operator=(const JobTable&) = delete;
  ~JobTable();

  std::size_t size() const { return size_; }
  Job& operator[](std::size_t index) {
    return blocks_[index / kBlockJobs].get()[index % kBlockJobs];
  }
  const Job& operator[](std::size_t index) const {
    return blocks_[index / kBlockJobs].get()[index % kBlockJobs];
  }
  /// Construct `job` in the next slot; returns it.
  Job& push_back(Job&& job);

 private:
  static constexpr std::size_t kBlockJobs = 256;
  /// Frees a block's storage; the table destroys the jobs in it.
  struct FreeBlock {
    void operator()(Job* block) const {
      std::allocator<Job>().deallocate(block, kBlockJobs);
    }
  };
  std::vector<std::unique_ptr<Job, FreeBlock>> blocks_;
  std::size_t size_ = 0;
};

/// The reference implementation of the public `dmr::Rms` interface.
class Manager : public ::dmr::Rms {
 public:
  /// `member` is this manager's index in its federation (0 standalone);
  /// it is stamped on every event the manager emits and sets the
  /// manager's id range (kClusterIdStride).
  explicit Manager(RmsConfig config, int member = 0);

  // --- job lifecycle -------------------------------------------------------

  JobId submit(JobSpec spec, double now) override;
  void cancel(JobId id, double now) override;
  /// The job's processes exited; release resources and reschedule.
  void job_finished(JobId id, double now) override;
  /// Run a scheduling pass if a placement-relevant event occurred since
  /// the last one; a no-op otherwise (counters().schedule_passes tells
  /// which).  Started jobs are Running, resizers included.
  void schedule(double now) override;

  // --- DMR (Sections IV-V) ---------------------------------------------------

  /// Synchronous reconfiguring point: policy decision + immediate
  /// application (dmr_check_status).
  Outcome dmr_check(JobId id, const Request& request, double now) override;
  /// Policy decision only, no side effects (first half of the
  /// asynchronous dmr_icheck_status: the action is applied at the *next*
  /// reconfiguring point, possibly against a changed system state).
  Decision dmr_decide(JobId id, const Request& request,
                      double now) override;
  /// Apply a previously negotiated action.  Expansion re-runs the resizer
  /// protocol and may abort; shrinking always succeeds.  Reproduces the
  /// paper's "outdated decision" behaviour of Section VIII-C.
  Outcome dmr_apply(JobId id, const Decision& decision,
                    double now) override;
  /// Complete a shrink after the drain ACKs: releases draining nodes,
  /// reschedules (the boosted job should start here).
  void complete_shrink(JobId id, double now) override;

  // --- live reconfiguration (the service's what-if hook) ---------------------

  /// Grow the first partition by `count` idle nodes.  Marks placements
  /// dirty so the next schedule() sees the new capacity.
  void add_nodes(int count, double now);

  // --- queries ---------------------------------------------------------------

  /// The user job `id`, or the resizer `id` while its dmr_apply runs;
  /// throws std::out_of_range otherwise.
  const Job& job(JobId id) const;
  /// Public-API snapshot of a job (hosts resolved to node names, the
  /// surviving set excluding draining nodes).
  ::dmr::JobView query(JobId id) const override;
  const Cluster& cluster() const { return cluster_; }
  int idle_nodes() const { return cluster_.idle(); }
  /// Every pending job in SubmitOrder: the queue a scheduling pass reads
  /// and Algorithm 1 scans.  The resizer is in it only while its expand
  /// protocol runs inside dmr_apply.  The manager's own list, valid until
  /// the manager changes.
  std::span<const Job* const> pending_queue() const { return pending_jobs_; }
  /// Every running job, resizers included, in no fixed order:
  /// the list a scheduling pass reads.  Valid until the manager changes.
  std::span<const Job* const> running_list() const { return running_jobs_; }
  /// What a scheduling pass at `now` reads: the queue, the running list
  /// and the cluster's idle, draining and partition tables, in place.
  /// Same validity as pending_queue.
  ScheduleView schedule_view(double now) const;
  /// Every user job so far, as `const Job*` in submission order (the job
  /// at index i has id member * kClusterIdStride + 1 + i).  A 32-bit
  /// index covers the id range and keeps the view's iterators classic
  /// ones.
  auto jobs() const {
    const auto at = [this](unsigned i) -> const Job* { return &jobs_[i]; };
    return std::views::iota(0u, static_cast<unsigned>(jobs_.size())) |
           std::views::transform(at);
  }
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
  /// Index of user job `id` in jobs_ (kNoJob when no user job has it).
  /// User ids run consecutively from first_job_id_ and jobs are never
  /// erased, so the subtraction is the whole lookup.
  std::size_t job_index(JobId id) const {
    if (id < first_job_id_) return kNoJob;
    const std::size_t index = static_cast<std::size_t>(id - first_job_id_);
    return index < jobs_.size() ? index : kNoJob;
  }
  Job& job_mutable(JobId id) { return const_cast<Job&>(job(id)); }
  /// The partition `spec` asks for (kAnyPartition when none); throws
  /// std::invalid_argument when that pool cannot hold the job.
  int checked_partition(const JobSpec& spec) const;
  /// submit() and submit_resizer()'s shared tail: give the new job its
  /// spec's size, the checked `partition` and its submit time, then
  /// queue and announce it.
  void admit(Job& job, int partition, double now);
  Outcome dmr_apply_impl(JobId id, const Decision& decision, double now);
  // The resize protocol's pieces, composed by dmr_apply_impl.
  /// Fill resizer_ with B for `parent`, queued last among boosted jobs.
  void submit_resizer(const Job& parent, int extra_nodes, double now);
  /// Zero-size update + cancel: detach the resizer's nodes and hand them
  /// to the parent job.
  void harvest_resizer(Job& parent, double now);
  void rescale_time_limit(Job& job, double now, double ratio);
  void start_job(Job& job, double now);
  void finish_job(Job& job, double now, JobState final_state);
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
  /// pending_jobs_ upkeep: insert at the job's SubmitOrder position,
  /// erase in place, and move a newly boosted job into the boosted
  /// prefix.
  void enqueue(Job& job);
  void dequeue(const Job& job);
  void boost(Job& job);
  void remove_from(std::vector<Job*>& list, const Job* job);

  // The settings read after construction (the node count and partitions
  // live in cluster_).
  SchedulerConfig scheduler_;
  bool shrink_priority_boost_;
  JobId first_job_id_;
  Cluster cluster_;
  /// The user jobs, indexed by `id - first_job_id_`.  Element addresses
  /// stay stable for the Job* index lists below while the table grows.
  JobTable jobs_;
  /// The expand protocol's resizer B, the one job outside the table: its
  /// id resolves from submit_resizer to the end of B's protocol.
  Job resizer_{.state = JobState::Cancelled, .resizer = true};
  /// B's next id, one lower per expand attempt.
  JobId next_resizer_id_;
  Counters counters_;
  int member_;
  obs::SinkList sinks_;

  // --- live-set indices (the incremental-scheduling state) -----------------
  /// Every pending job, resizers included, in SubmitOrder.
  std::vector<Job*> pending_jobs_;
  std::vector<Job*> running_jobs_;  // every running job, resizers included
  long long unfinished_user_jobs_ = 0;
  /// Exact (allocated nodes, running jobs) over non-resizer running
  /// jobs, maintained at every allocation mutation so an alloc-changed
  /// event needs no running-set scan.
  int user_allocated_nodes_ = 0;
  int user_running_jobs_ = 0;
  bool placements_dirty_ = true;
  /// The last scheduling pass's starts and diagnoses, kept so a pass
  /// does not allocate its lists.
  std::vector<const Job*> started_;
  std::vector<BlockDiag> blocked_;
  /// dmr_decide's queue for a pinned job (the jobs its partition serves).
  std::vector<const Job*> policy_scratch_;
};

}  // namespace dmr::rms

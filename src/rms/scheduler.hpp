// Queue scheduling: FCFS in SubmitOrder with EASY backfill.
//
// This mirrors the paper's Slurm configuration ("backfill job scheduling
// policy ... job priorities with the policy multifactor, both with default
// values").  This model gives every job the same quality-of-service and
// fair-share factors and weighs no job size, so the only multifactor term
// that can separate two queued jobs is their age: an earlier submission
// never ranks below a later one, and equal priorities fall to submit
// time, then job id.  Algorithm 1's set_max_priority puts a boosted job
// ahead of all of them.  That is SubmitOrder (job.hpp), the one order the
// queue is kept in.
//
// The pass is a pure function over a view of the live tables (the
// manager's queue and running list, the cluster's idle and draining
// tables), read in place, so it can be unit-tested exhaustively and
// reused by both the virtual-time and the real-time managers.
//
// Two view extensions beyond the plain homogeneous one:
//  - per-node draining flags: a shrinking job's draining nodes are
//    released as soon as the drain protocol completes, not at the job's
//    time limit, so the EASY reservation treats them as imminent;
//  - heterogeneous partitions: per-partition idle counts plus the idle
//    bitmap let the pass predict each grant with the cluster's own
//    grant_order, place partition-constrained jobs and keep the EASY
//    reservation per pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rms/cluster.hpp"
#include "rms/job.hpp"

namespace dmr::obs {
enum class BlockReason : int;
}

namespace dmr::rms {

struct SchedulerConfig {
  bool backfill = true;
  /// Node-selection order for spanning jobs on heterogeneous clusters.
  /// The manager grants by this same field, so the pass predicts
  /// exactly what Cluster::allocate grants.
  AllocPolicy alloc = AllocPolicy::LowestId;
};

/// The scheduler's inputs at one instant: spans over tables the caller
/// keeps, valid while those tables do not change.
struct ScheduleView {
  double now = 0.0;
  int idle_nodes = 0;
  /// Pending jobs in SubmitOrder.  Precondition, not checked: the pass
  /// reads the queue as given.  Manager::schedule hands over its own
  /// queue, which it keeps in that order; hand-built views sort with
  /// SubmitOrder first.
  std::span<const Job* const> pending;
  /// Running jobs, used to estimate the backfill shadow time.
  std::span<const Job* const> running;
  /// Draining flag per node id (empty = nothing draining).  Draining
  /// nodes release at `now` for shadow purposes.
  std::span<const std::uint8_t> node_draining;
  /// Heterogeneous clusters only (all three empty on the homogeneous
  /// fast path): partition index per node id, idle count per partition,
  /// and the idle bitmap (Cluster::idle_bits) grants are taken from.
  /// Precondition, not checked: `idle_nodes` and each partition's count
  /// are the set bits of the bitmap there, as in a Cluster's own tables.
  std::span<const int> node_partition;
  std::span<const int> idle_per_partition;
  std::span<const std::uint64_t> idle_bits;

  bool heterogeneous() const { return !idle_per_partition.empty(); }
};

/// Why a pending job was left in the queue by one pass, diagnosed from
/// the post-pass pool state.  `blocker` names the job holding the wait
/// (the reserved head, the critical expected release, the draining
/// shrink) or 0 when no single job is responsible.
struct BlockDiag {
  const Job* job = nullptr;
  obs::BlockReason cause{};  // zero value = kUnattributed
  JobId blocker = 0;
};

/// Decide which pending jobs to start now: `started` is cleared and
/// filled with them in start order (the caller keeps the list, so a
/// pass reuses its capacity).  Guarantees:
///  - total requested nodes of the result never exceeds idle_nodes (and,
///    per partition-constrained job, that partition's idle count);
///  - the first blocked job in queue order is never delayed by a
///    backfilled one (EASY reservation based on running jobs' expected
///    releases).
///
/// With `blocked` non-null the pass additionally appends one BlockDiag
/// per pending job it did not start, in queue order.  Diagnosis is
/// observation only: the started set is byte-identical either way.
void schedule_pass(const ScheduleView& view, const SchedulerConfig& config,
                   std::vector<const Job*>& started,
                   std::vector<BlockDiag>* blocked = nullptr);

/// Earliest time at which `needed` nodes are expected to be free in
/// `pool` (a partition index, or -1 for the whole cluster), given current
/// idle nodes and running jobs' expected releases.  Draining nodes count
/// as released at `view.now`; the rest of a job's allocation at
/// `start_time + time_limit`.  Returns the shadow time and, through
/// `extra_nodes`, how many nodes beyond `needed` will be free then (the
/// backfill window width).
double shadow_time(const ScheduleView& view, int needed, int* extra_nodes,
                   int pool = -1);

}  // namespace dmr::rms

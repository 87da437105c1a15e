#include "rms/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "obs/attr.hpp"

namespace dmr::rms {

namespace {

/// Mutable idle bookkeeping shared by the FCFS and backfill phases, and
/// the starts that consumed it.  In heterogeneous mode it keeps its own
/// copy of the idle bitmap and per-partition counts, predicts each
/// start with grant_order, the walk Cluster::allocate commits, and
/// clears the taken bits, so per-partition idle counts stay exact as
/// jobs are picked.
struct IdlePool {
  const ScheduleView* view;
  AllocPolicy policy;
  int idle_total;
  std::vector<int> idle_parts;           // empty = homogeneous
  std::vector<std::uint64_t> idle_bits;  // empty = homogeneous
  /// The jobs started so far, in start order (the caller's list, empty
  /// when the pool is made).
  std::vector<const Job*>& started;
  /// Heterogeneous mode: each start's predicted grant, back to back
  /// (requested_nodes ids per started job).
  std::vector<int> granted;

  IdlePool(const ScheduleView& v, AllocPolicy alloc,
           std::vector<const Job*>& starts)
      : view(&v),
        policy(alloc),
        idle_total(v.idle_nodes),
        idle_parts(v.idle_per_partition.begin(), v.idle_per_partition.end()),
        idle_bits(v.idle_bits.begin(), v.idle_bits.end()),
        started(starts) {}

  bool heterogeneous() const { return !idle_parts.empty(); }

  int partition_of(int node_id) const {
    return view->node_partition[static_cast<std::size_t>(node_id)];
  }

  int available_for(const Job& job) const {
    if (!heterogeneous() || job.partition < 0) return idle_total;
    return idle_parts[static_cast<std::size_t>(job.partition)];
  }

  bool fits(const Job& job) const {
    return job.requested_nodes > 0 && job.requested_nodes <= available_for(job);
  }

  /// The ids the cluster would grant the job right now, in grant order
  /// (heterogeneous mode only).
  std::vector<int> plan_take(const Job& job) const {
    return grant_order(idle_bits, view->node_partition, idle_parts,
                       job.requested_nodes, job.partition, policy);
  }

  /// Nodes the job would take from `partition`, without committing.
  int count_take_in(const Job& job, int partition) const {
    if (!heterogeneous()) return job.requested_nodes;
    int in_partition = 0;
    for (int id : plan_take(job)) {
      if (partition_of(id) == partition) ++in_partition;
    }
    return in_partition;
  }

  /// Commit the start (and, in heterogeneous mode, its predicted grant).
  void take(const Job& job) {
    idle_total -= job.requested_nodes;
    started.push_back(&job);
    if (!heterogeneous()) return;
    for (int id : plan_take(job)) {
      --idle_parts[static_cast<std::size_t>(partition_of(id))];
      idle_bits[static_cast<std::size_t>(id) >> 6] &=
          ~(std::uint64_t(1) << (id & 63));
      granted.push_back(id);
    }
  }
};

/// Walk every expected release of nodes in `pool` (a partition, or -1
/// for the whole cluster), calling emit(time, job, nodes, draining) for
/// each, and return the nodes idle there after the starts so far.  The
/// running jobs come first, in the view's order, then the jobs this pass
/// started, in start order: those run from `now`, and their end is
/// known only through their limit.  A job releases its draining nodes
/// at `now` (the shrink drain completes imminently, well before the time
/// limit) and the rest of its allocation at start_time + time_limit.
template <typename Emit>
int walk_releases(const IdlePool& idle, int pool, Emit&& emit) {
  const ScheduleView& view = *idle.view;
  const bool pooled = pool >= 0 && view.heterogeneous();
  // Homogeneous cluster with nothing draining: every allocated node is
  // in the pool and none releases early, so the per-node walk (paid per
  // running job per shadow evaluation) collapses to the allocation size.
  const bool count_only = !pooled && view.node_draining.empty();
  const auto release = [&](const Job& job, double end,
                           std::span<const int> nodes) {
    int pool_nodes = 0;
    int draining = 0;
    if (count_only) {
      pool_nodes = static_cast<int>(nodes.size());
    } else {
      for (int node_id : nodes) {
        if (pooled && idle.partition_of(node_id) != pool) continue;
        ++pool_nodes;
        if (!view.node_draining.empty() &&
            view.node_draining[static_cast<std::size_t>(node_id)] != 0) {
          ++draining;
        }
      }
    }
    if (draining > 0) emit(view.now, job, draining, true);
    if (pool_nodes - draining > 0) {
      emit(std::max(view.now, end), job, pool_nodes - draining, false);
    }
  };
  for (const Job* job : view.running) {
    release(*job, job->start_time + job->spec.time_limit, job->nodes);
  }
  std::span<const int> granted = idle.granted;
  for (const Job* job : idle.started) {
    const double end = view.now + job->spec.time_limit;
    if (!view.heterogeneous()) {
      // The grant's ids are unknown until the cluster grants it; every
      // node is in the pool and none of a fresh grant drains.
      emit(std::max(view.now, end), *job, job->requested_nodes, false);
      continue;
    }
    const auto size = static_cast<std::size_t>(job->requested_nodes);
    release(*job, end, granted.first(size));
    granted = granted.subspan(size);
  }
  return pooled ? idle.idle_parts[static_cast<std::size_t>(pool)]
                : idle.idle_total;
}

/// The running job whose expected release would cross the `needed`
/// threshold (for BlockDiag attribution), found by the same release
/// accumulation shadow_time performs.
struct CriticalRelease {
  const Job* owner = nullptr;
  /// True when the crossing release is a draining-node release (at
  /// `now`), i.e. the blocker is a job shrinking on the waiter's behalf.
  bool draining = false;
};

/// One pool's expected releases after the pass, sorted by (time, id) so
/// the named blocker is deterministic, and the nodes idle there.  The
/// diagnosis does not change the pool, so each pool's list is built and
/// sorted once per pass and read for every job left waiting there.
class PoolReleases {
 public:
  PoolReleases(const IdlePool& idle, int pool) {
    releases_.reserve((idle.view->running.size() + idle.started.size()) * 2);
    idle_ = walk_releases(
        idle, pool, [&](double time, const Job& job, int nodes, bool draining) {
          releases_.push_back(Release{time, job.id, &job, nodes, draining});
        });
    std::sort(releases_.begin(), releases_.end(),
              [](const Release& a, const Release& b) {
                return a.time != b.time ? a.time < b.time : a.id < b.id;
              });
  }

  CriticalRelease blocking(int needed) const {
    int free_nodes = idle_;
    if (free_nodes >= needed) return {};
    for (const Release& release : releases_) {
      free_nodes += release.nodes;
      if (free_nodes >= needed) {
        return CriticalRelease{release.owner, release.draining};
      }
    }
    return {};
  }

 private:
  struct Release {
    double time;
    JobId id;
    const Job* owner;
    int nodes;
    bool draining;
  };
  std::vector<Release> releases_;
  int idle_ = 0;
};

/// shadow_time after the pass's starts so far.
double shadow_after(const IdlePool& idle, int needed, int* extra_nodes,
                    int pool) {
  // Accumulate expected releases in time order until the requirement is
  // met.
  struct Release {
    double time;
    int nodes;
  };
  // Scratch kept across calls — one shadow evaluation per blocked pass,
  // each rebuilding the release schedule from the running set.
  static thread_local std::vector<Release> releases;
  releases.clear();
  releases.reserve((idle.view->running.size() + idle.started.size()) * 2);
  int free_nodes =
      walk_releases(idle, pool, [](double time, const Job&, int nodes, bool) {
        releases.push_back(Release{time, nodes});
      });
  if (free_nodes >= needed) {
    if (extra_nodes != nullptr) *extra_nodes = free_nodes - needed;
    return idle.view->now;
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });
  for (const Release& release : releases) {
    free_nodes += release.nodes;
    if (free_nodes >= needed) {
      if (extra_nodes != nullptr) *extra_nodes = free_nodes - needed;
      return release.time;
    }
  }
  if (extra_nodes != nullptr) *extra_nodes = 0;
  return std::numeric_limits<double>::infinity();
}

}  // namespace

double shadow_time(const ScheduleView& view, int needed, int* extra_nodes,
                   int pool) {
  std::vector<const Job*> none;
  return shadow_after(IdlePool(view, AllocPolicy::LowestId, none), needed,
                      extra_nodes, pool);
}

void schedule_pass(const ScheduleView& view, const SchedulerConfig& config,
                   std::vector<const Job*>& started,
                   std::vector<BlockDiag>* blocked) {
  const std::span<const Job* const> queue = view.pending;  // in SubmitOrder
  started.clear();
  IdlePool pool(view, config.alloc, started);

  // Start jobs FCFS until the head no longer fits.
  std::size_t head = 0;
  while (head < queue.size() && pool.fits(*queue[head])) {
    pool.take(*queue[head]);
    ++head;
  }
  if (head >= queue.size() || (!config.backfill && blocked == nullptr)) {
    return;
  }

  const Job* head_job = queue[head];
  if (config.backfill) {
    // EASY reservation for the blocked head job, computed in the head's
    // eligible pool (its partition, or the whole cluster when
    // unconstrained), after the FCFS starts: jobs we just chose to start
    // have unknown end times only through their limits, so they count as
    // running from `now`.  Only a later job that fits reads it, so it is
    // computed when the first one is found, before any backfill start.
    const int head_pool = view.heterogeneous() ? head_job->partition : -1;
    bool reserved = false;
    double shadow = 0.0;

    // Backfill: later jobs may start now if they fit and cannot delay the
    // head — they complete before the shadow time, draw from a partition
    // disjoint from the head's pool, or take no more of the head's pool
    // than the backfill window (the nodes beyond the head's need free at
    // the shadow time).
    int backfill_window = 0;
    for (std::size_t i = head + 1; i < queue.size(); ++i) {
      const Job* job = queue[i];
      if (!pool.fits(*job)) continue;
      if (!reserved) {
        shadow = shadow_after(pool, head_job->requested_nodes,
                              &backfill_window, head_pool);
        reserved = true;
      }
      const bool disjoint = head_pool >= 0 && job->partition >= 0 &&
                            job->partition != head_pool;
      const bool ends_before_shadow =
          view.now + job->spec.time_limit <= shadow;
      if (disjoint || ends_before_shadow) {
        pool.take(*job);
        continue;
      }
      // Nodes this job would take from the head's contended pool.
      const int overlap = head_pool >= 0 ? pool.count_take_in(*job, head_pool)
                                         : job->requested_nodes;
      if (overlap > backfill_window) continue;
      pool.take(*job);
      backfill_window -= overlap;
    }
  }

  if (blocked != nullptr) {
    // Diagnose every job still pending against the post-pass state (the
    // same convention as the shadow computation).  The pass started the
    // jobs from the head on in queue order, so one cursor over its starts
    // skips them.
    std::size_t next_start = head;
    // Per pool (slot 0 the whole cluster, 1 + p partition p), its sorted
    // releases, built on the first job diagnosed there.
    std::vector<std::optional<PoolReleases>> releases(
        1 + view.idle_per_partition.size());
    for (std::size_t i = head; i < queue.size(); ++i) {
      const Job* job = queue[i];
      if (next_start < started.size() && started[next_start] == job) {
        ++next_start;
        continue;
      }
      BlockDiag diag;
      diag.job = job;
      if (job != head_job && pool.fits(*job)) {
        // Fits right now but may not start: held by the EASY reservation
        // protecting the queue head (with backfill off, plain FCFS hold
        // behind the head — the degenerate whole-pool reservation).
        diag.cause = obs::BlockReason::kEasyReservation;
        diag.blocker = head_job->id;
      } else {
        const int job_pool = view.heterogeneous() ? job->partition : -1;
        std::optional<PoolReleases>& in_pool =
            releases[static_cast<std::size_t>(1 + job_pool)];
        if (!in_pool) in_pool.emplace(pool, job_pool);
        const CriticalRelease crit = in_pool->blocking(job->requested_nodes);
        if (job_pool >= 0 && pool.idle_total >= job->requested_nodes) {
          // The cluster could hold it; the pinned partition cannot.
          diag.cause = obs::BlockReason::kPartitionPinned;
          diag.blocker = crit.owner != nullptr ? crit.owner->id : 0;
        } else if (crit.owner != nullptr && crit.draining) {
          // Unblocked by an in-progress drain: a boosted waiter is the
          // job the shrink was started for (Algorithm 1 line 18).
          diag.cause = job->priority_boost
                           ? obs::BlockReason::kShrinkPending
                           : obs::BlockReason::kDrainingWait;
          diag.blocker = crit.owner->id;
        } else {
          diag.cause = obs::BlockReason::kInsufficientIdle;
          diag.blocker = crit.owner != nullptr ? crit.owner->id : 0;
        }
      }
      blocked->push_back(diag);
    }
  }
}

}  // namespace dmr::rms

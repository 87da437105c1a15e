// Job model of the simulated workload manager.
//
// Follows the classification of Feitelson & Rudolph used by the paper:
// *fixed* jobs keep their process count for their whole run; *flexible*
// jobs expose reconfiguring points and may be expanded or shrunk by the
// reconfiguration policy while running.
#pragma once

#include <vector>

#include "dmr/types.hpp"

namespace dmr::rms {

// The job identity and submission types are part of the public API; the
// manager internals alias them so values cross the facade unconverted.
using ::dmr::JobId;
using ::dmr::kInvalidJob;
using JobState = ::dmr::JobState;
using JobSpec = ::dmr::JobSpec;
using ::dmr::to_string;

/// A job tracked by the manager.
struct Job {
  JobId id = kInvalidJob;
  JobSpec spec = {};
  JobState state = JobState::Pending;

  /// Current node request; mutable through job updates (the Slurm resize
  /// protocol updates it to 0 for resizer harvesting and to N_A+N_B for
  /// the original job).
  int requested_nodes = 1;

  /// Allocated node ids (empty unless Running).
  std::vector<int> nodes = {};

  /// Scheduler priority boost (set_max_priority in Algorithm 1).
  bool priority_boost = false;
  /// The expand protocol's resizer job B: a pseudo-job only the manager
  /// submits, held outside its job table and invisible to metrics.
  bool resizer = false;

  /// Partition index resolved from spec.partition at submission
  /// (kAnyPartition/-1 = unconstrained).
  int partition = -1;

  double submit_time = 0.0;
  double start_time = -1.0;
  double end_time = -1.0;

  /// Number of expand/shrink operations applied (telemetry).
  int expansions = 0;
  int shrinks = 0;

  int allocated() const { return static_cast<int>(nodes.size()); }
  bool pending() const { return state == JobState::Pending; }
  bool running() const { return state == JobState::Running; }
  bool finished() const {
    return state == JobState::Completed || state == JobState::Cancelled;
  }

  double wait_time() const {
    return start_time >= 0.0 ? start_time - submit_time : -1.0;
  }
  double execution_time() const {
    return (start_time >= 0.0 && end_time >= 0.0) ? end_time - start_time
                                                  : -1.0;
  }
  double completion_time() const {
    return end_time >= 0.0 ? end_time - submit_time : -1.0;
  }
};

/// The pending queue's one order: boosted jobs first (Algorithm 1's
/// set_max_priority), then submit time, then id.  A total order that
/// never moves with time; see scheduler.hpp for why it is the paper's.
struct SubmitOrder {
  bool operator()(const Job* a, const Job* b) const;
};

/// Valid malleable sizes reachable from `current` with `factor`, within
/// [min_nodes, max_nodes].  Expansion candidates are current*factor^k,
/// shrink candidates current/factor^k (exact divisions only), k >= 1.
/// The reference definition behind max_procs_to and min_procs_run, which
/// walk the same powers without building the lists.
std::vector<int> expand_candidates(int current, int factor, int max_nodes);
std::vector<int> shrink_candidates(int current, int factor, int min_nodes);

/// True when `target` is reachable from `current` by the resize factor.
bool factor_reachable(int current, int target, int factor);

}  // namespace dmr::rms

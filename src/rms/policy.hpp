// The paper's Slurm resource-selection plug-in: Algorithm 1.
//
// Three degrees of scheduling freedom (Section IV):
//  1. "Request an action": the application forces a direction by setting
//     min_procs above / max_procs below its current allocation; the RMS
//     still only grants what the system state allows.
//  2. "Preferred number of nodes": expand/shrink toward the preference;
//     when the queue is empty the job may grow up to its maximum.
//  3. "Wide optimization": shrink when that lets a queued job start (the
//     queued job gets a max-priority boost), expand when nothing pending
//     could use the idle nodes anyway.
//
// The policy is a pure function of a system snapshot, so every branch of
// Algorithm 1 is unit-testable.
#pragma once

#include <span>

#include "dmr/types.hpp"
#include "rms/job.hpp"

namespace dmr::rms {

// The public API value types (include/dmr/types.hpp), under their one
// name: the policy's inputs and verdicts are exactly what crosses the
// facade.
using Action = ::dmr::Action;
using ::dmr::Decision;
using ::dmr::Request;

struct PolicyView {
  /// The job asking (must be running).
  const Job* job = nullptr;
  int idle_nodes = 0;
  /// Eligible pending jobs the asking job's nodes could serve, in
  /// SubmitOrder.  A view: Manager::dmr_decide hands over its own queue,
  /// or a filtered copy it keeps for pinned jobs.
  std::span<const Job* const> pending;
};

Decision reconfiguration_policy(const PolicyView& view,
                                const Request& request);

/// Largest factor-reachable expansion of `current` that stays within
/// min(limit, request bounds) and whose growth fits in `idle_nodes`.
/// Returns 0 when no valid expansion exists (Algorithm 1's
/// max_procs_to()): the largest of expand_candidates(current, factor,
/// limit) within reach, found by stepping through the factor powers.
/// Throws std::invalid_argument when current < 1 or factor < 2.
int max_procs_to(int current, int factor, int limit, int idle_nodes);

/// Largest factor-reachable shrink of `current` that is <= ceiling and
/// >= min_procs; 0 when none exists (Algorithm 1's min_procs_run() once
/// the ceiling is derived from the target job's requirement): the
/// largest of shrink_candidates(current, factor, min_procs) <= ceiling.
/// Throws std::invalid_argument when current < 1 or factor < 2.
int min_procs_run(int current, int factor, int ceiling, int min_procs);

}  // namespace dmr::rms

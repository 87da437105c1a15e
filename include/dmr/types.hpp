// Public value types of the DMR API.
//
// These are the canonical definitions of everything the paper's
// `dmr_check_status` / `dmr_icheck_status` interface exchanges between an
// application, the runtime and the resource manager: the request an
// application conveys at a reconfiguring point, the policy decision the
// RMS takes, and the outcome of applying it.  The internal layers
// (`dmr::rms`, `dmr::rt`, `dmr::drv`) alias these types rather than
// defining their own, so a value can cross every layer without
// conversion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dmr {

using JobId = std::int64_t;
constexpr JobId kInvalidJob = -1;

/// How a reconfiguring point talks to the RMS (Section V-A).
enum class Mode {
  /// dmr_check_status: negotiate and apply the action in the same call.
  Sync,
  /// dmr_icheck_status: apply the action negotiated at the *previous*
  /// point, then schedule a fresh negotiation; decisions may be outdated
  /// when applied (Section VIII-C).
  Async,
};

enum class Action { None, Expand, Shrink };

std::string to_string(Action action);
std::string to_string(Mode mode);

/// What a reconfiguring point conveys to the RMS (the DMR API inputs).
struct Request {
  int min_procs = 1;
  int max_procs = 1;
  int factor = 2;
  /// 0 = no preference (maximum RMS freedom).
  int preferred = 0;
};

/// The reconfiguration policy's verdict (Algorithm 1), before any
/// resources move.
struct Decision {
  Action action = Action::None;
  /// Target process count when action != None.
  int new_size = 0;
  /// Queued job to boost to max priority when shrinking (Algorithm 1,
  /// line 18); kInvalidJob otherwise.
  JobId boost_target = kInvalidJob;
};

/// Result of applying a decision: the resize protocol's side of the
/// story.  What the resize moved is the substrate's to account: the
/// virtual-time driver prices it from its own redist::Report, the
/// real-mode loop records it in rt::ResizeRecord.  The nodes an expand
/// added and a shrink drains are the job's (JobView::hosts and
/// surviving_hosts), and a boosted job carries its own priority_boost.
struct Outcome {
  Action action = Action::None;
  /// The job's allocation when the decision was applied.
  int old_size = 0;
  /// Granted process count (== allocation after the resize completes).
  int new_size = 0;
  /// True when the policy granted an action but the resizer-job protocol
  /// could not obtain the nodes (timeout/abort path of Section V-B1), or
  /// an asynchronously negotiated decision was already outdated.
  bool aborted = false;
};

enum class JobState {
  Pending,    // queued, waiting for an allocation
  Running,    // allocated and executing
  Completed,  // finished normally
  Cancelled,  // removed before or during execution
};

std::string to_string(JobState state);

/// Immutable submission-time description of a job.
struct JobSpec {
  std::string name;
  /// Nodes requested at submission (the paper submits every job at its
  /// user-preferred "fast execution" size).
  int requested_nodes = 1;
  /// Smallest size a moldable start may take.  The malleability bounds
  /// (Table I: "Minimum"/"Maximum" processes), the preferred size and
  /// the resize factor are the Request's, passed at every reconfiguring
  /// point.
  int min_nodes = 1;
  /// Whether the job participates in dynamic reconfiguration.
  bool flexible = false;
  /// Wall-clock limit estimate used by the backfill scheduler.
  double time_limit = 3600.0;
  /// Cluster partition this job is constrained to; empty = any (the job
  /// may span partitions).  Unknown names are rejected at submission.
  std::string partition;
  /// Moldable submission (the paper's future-work extension): instead of
  /// a rigid `requested_nodes`, the scheduler may start the job with any
  /// size in [min_nodes, requested_nodes] if that lets it start earlier.
  bool moldable = false;
};

/// Read-only job snapshot handed across the API boundary (the public
/// stand-in for the manager's internal Job record).
struct JobView {
  JobId id = kInvalidJob;
  std::string name;
  JobState state = JobState::Pending;
  /// Current allocation size (0 unless running).
  int allocated = 0;
  /// Host names of the full current allocation.
  std::vector<std::string> hosts;
  /// Hosts that survive a pending shrink (== hosts when none pending).
  std::vector<std::string> surviving_hosts;
  bool priority_boost = false;
  int expansions = 0;
  int shrinks = 0;
  double submit_time = 0.0;
  double start_time = -1.0;
  double end_time = -1.0;

  bool pending() const { return state == JobState::Pending; }
  bool running() const { return state == JobState::Running; }
  bool finished() const {
    return state == JobState::Completed || state == JobState::Cancelled;
  }
};

/// What the application sees at a reconfiguring point: the granted
/// action plus the node list of the new configuration (the host list
/// Slurm hands to MPI_Comm_spawn).
struct ResizeDecision {
  Action action = Action::None;
  /// Process count of the new configuration when action != None.
  int new_size = 0;
  /// Node names for the new process set.
  std::vector<std::string> hosts;
};

}  // namespace dmr

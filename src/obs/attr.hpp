// obs::WaitAttributor — wait-time attribution and decision provenance.
//
// The paper's headline result (figs. 10-11) is that DMR malleability
// cuts job *waiting* time, yet the driver reports wait only as a scalar
// summary.  This layer answers *why* a job waited: every scheduler
// decision point in rms::Manager (insufficient idle nodes, blocked
// behind the EASY reservation, partition-pin mismatch, draining-wait,
// shrink-pending, dependency gating) emits a typed BlockReason, and the
// attributor, a sink on that event stream, folds the reports into
// per-job wait decompositions (resizer pseudo-jobs excluded).
//
// Conservation is the contract: a job's wait [submit, start] is tiled
// by contiguous cause segments — one segment is open at any moment, a
// re-diagnosis with a different cause closes it and opens the next, and
// start closes the last — so the per-cause seconds of a started job sum
// *exactly* to start - submit.  Attribution is observation only; like
// every other observer, outcome digests are byte-identical attached vs.
// detached.
//
// The sidecar (to_json / write_file) is a compact sorted-key JSON
// document tools/dmr_explain ingests alongside the Chrome trace to
// answer --job / --top-waits / --critical-path / --compare; the loader
// and those analytics live here so tests cover them directly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dmr/types.hpp"
#include "obs/event.hpp"

namespace dmr::obs {

/// Human-facing name ("easy-reservation").
const char* to_string(BlockReason reason);
/// JSON column key ("easy_reservation").
const char* block_reason_key(BlockReason reason);
/// Inverse of to_string; kUnattributed on unknown names.
BlockReason block_reason_from(const std::string& name);

/// One chronological slice of a job's wait, merged with the previous
/// slice when cause and blocker repeat.
struct CauseSlice {
  BlockReason cause = BlockReason::kUnattributed;
  /// The job holding the wait: the running job whose expected release
  /// unblocks it, the reserved queue head, the shrinking job, or the
  /// dependency target.  0 when no single job is responsible.
  JobId blocker = 0;
  double seconds = 0.0;
};

struct JobAttribution {
  JobId id = 0;
  std::string name;
  double submit = 0.0;
  double start = -1.0;  ///< -1 until started
  double end = -1.0;    ///< -1 until finished
  /// Federation member the placement routed to (-1 single-cluster runs
  /// without provenance).
  int member = -1;
  /// Placement provenance: policy, picked member, queue depth at the
  /// decision, members that rejected the job (failover).
  std::string placement;
  std::vector<CauseSlice> slices;

  double wait_seconds() const { return start >= 0.0 ? start - submit : 0.0; }
  double attributed_seconds() const;
};

/// Aggregate a job's slices by (cause, blocker), largest first.
std::vector<CauseSlice> ranked_causes(const JobAttribution& job);

/// The attribution accumulator.  Not serialized: parallel harnesses
/// attach one attributor per scenario.
class WaitAttributor final : public Sink {
 public:
  // --- the event stream ------------------------------------------------------

  Interest interest() const override;
  void on_event(const Event& event) override;

  // --- decision-point feed (what the event stream drives) -------------------

  void on_job_submitted(JobId id, const std::string& name, double now);
  /// Re-diagnosis of a still-pending job.  Same cause and blocker as the
  /// open segment: no-op.  Different: closes the open segment at `now`
  /// and opens the next.  A still-unattributed segment is back-dated
  /// instead (the cause held since submit).
  void on_job_blocked(JobId id, double now, BlockReason cause, JobId blocker);
  void on_job_started(JobId id, double now);
  void on_job_finished(JobId id, double now);

  // --- aggregates ------------------------------------------------------------

  /// Seconds per BlockReason (index = enum value) over closed slices;
  /// `now >= 0` also counts each open segment up to `now` (live views).
  std::vector<double> cause_totals(double now = -1.0) const;
  const std::map<JobId, JobAttribution>& jobs() const { return jobs_; }
  double makespan() const;

  // --- sidecar ---------------------------------------------------------------

  /// Compact sorted-key JSON sidecar (parse_attribution round-trips it).
  std::string to_json() const;
  /// Write the sidecar; throws std::runtime_error when unwritable.
  void write_file(const std::string& path) const;

 private:
  struct OpenSegment {
    BlockReason cause = BlockReason::kUnattributed;
    JobId blocker = 0;
    double since = 0.0;
  };

  void close_segment(JobAttribution& job, const OpenSegment& open, double now);

  std::map<JobId, JobAttribution> jobs_;
  std::map<JobId, OpenSegment> open_;
};

// --- sidecar analytics (tools/dmr_explain; tested directly) -----------------

struct AttributionProfile {
  std::vector<JobAttribution> jobs;  ///< sorted by id
  std::vector<double> cause_totals;  ///< kBlockReasonCount entries
  double makespan = 0.0;

  const JobAttribution* find(JobId id) const;
  double total_wait() const;
};

/// Parse a sidecar document; empty `error` on success.
AttributionProfile parse_attribution(const std::string& json,
                                     std::string& error);
/// Read and parse `path`; an unreadable file is an error, not an
/// exception.
AttributionProfile load_attribution_file(const std::string& path,
                                         std::string& error);
/// Snapshot the live accumulator into a profile (no JSON round trip).
AttributionProfile snapshot_attribution(const WaitAttributor& attr);

/// The `n` longest-waiting jobs, longest first.
std::vector<const JobAttribution*> top_waits(const AttributionProfile& profile,
                                             std::size_t n);

/// One link of the critical path: `job` spent `wait_seconds` of its wait
/// on `blocker`, and (when `tight`) started within `blocker`'s residency
/// — the handoff is a real release event, so the chain's span bounds the
/// makespan.
struct CriticalPathEdge {
  JobId blocker = 0;
  JobId job = 0;
  BlockReason cause = BlockReason::kUnattributed;
  double wait_seconds = 0.0;
  /// job.start - blocker.end: ~0 when released by the blocker's
  /// completion, negative when released mid-run (shrink/drain).
  double slack = 0.0;
  bool tight = false;
};

/// The longest finish-time dependency chain: back-walk from the job
/// whose end is the makespan through each job's final blocking cause to
/// a zero-wait root.  chain.back()'s end time *is* the makespan.
struct CriticalPath {
  std::vector<JobId> chain;            ///< root first, makespan job last
  std::vector<CriticalPathEdge> edges; ///< one per non-root chain job
  double makespan = 0.0;
  double root_submit = 0.0;
};

CriticalPath critical_path(const AttributionProfile& profile);

/// Regression diff of two attribution profiles (dmr_explain --compare).
struct AttributionDelta {
  double makespan_a = 0.0, makespan_b = 0.0;
  double total_wait_a = 0.0, total_wait_b = 0.0;
  int jobs_a = 0, jobs_b = 0;
  std::vector<double> cause_a, cause_b;  ///< kBlockReasonCount entries
  struct JobDelta {
    JobId id = 0;
    std::string name;
    double wait_a = 0.0, wait_b = 0.0;
  };
  /// Jobs present in both runs with changed wait, worst regression
  /// first.
  std::vector<JobDelta> moved_jobs;
};

AttributionDelta compare_profiles(const AttributionProfile& a,
                                  const AttributionProfile& b);

}  // namespace dmr::obs

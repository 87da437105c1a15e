// obs::WaitAttributor — wait-time attribution and decision provenance.
//
// The paper's headline result (figs. 10-11) is that DMR malleability
// cuts job *waiting* time, yet the driver reports wait only as a scalar
// summary.  This layer answers *why* a job waited: every scheduler
// decision point in rms::Manager emits a kBlocked event with a typed
// BlockReason, and the attributor, a sink on that event stream, folds
// them into per-job wait decompositions (resizer pseudo-jobs excluded).
//
// Conservation is the contract: a job's wait [submit, start] is tiled
// by contiguous cause segments — one open at any moment, a re-diagnosis
// with a different cause closes it and opens the next, and start closes
// the last — so a started job's per-cause seconds sum *exactly* to
// start - submit.  Like every observer it never perturbs a run: outcome
// digests are byte-identical attached vs. detached.
//
// The sidecar (to_json / write_file) is the sorted-key JSON document
// tools/dmr_explain reads for --job / --top-waits / --critical-path /
// --compare; the loader and those analytics live here, under test.
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "dmr/types.hpp"
#include "obs/event.hpp"

namespace dmr::obs {

/// Human-facing name ("easy-reservation").
const char* to_string(BlockReason reason);
/// JSON column key ("easy_reservation").
const char* block_reason_key(BlockReason reason);
/// Inverse of to_string; nullopt on unknown names.
std::optional<BlockReason> block_reason_from(const std::string& name);

/// One chronological slice of a job's wait, merged with the previous
/// slice when cause and blocker repeat.
struct CauseSlice {
  BlockReason cause = BlockReason::kUnattributed;
  /// The job holding the wait: the running job whose expected release
  /// unblocks it, the reserved queue head or the shrinking job.  0 when
  /// no single job is responsible.
  JobId blocker = 0;
  double seconds = 0.0;
};

struct JobAttribution {
  JobId id = 0;
  std::string name;
  double submit = 0.0;
  double start = -1.0;  ///< -1 until started
  double end = -1.0;    ///< -1 until finished
  /// The member placement routed it to; -1 when unknown.
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

struct AttributionProfile {
  std::vector<JobAttribution> jobs;  ///< sorted by id
  std::vector<double> cause_totals = std::vector<double>(kBlockReasonCount);
  double makespan = 0.0;

  const JobAttribution* find(JobId id) const;
  double total_wait() const;
};

/// The attribution accumulator, a sink on the event stream (its one way
/// in).  Not serialized: parallel harnesses attach one per scenario.
class WaitAttributor final : public Sink {
 public:
  Interest interest() const override;
  void on_event(const Event& event) override;

  /// Seconds per BlockReason (index = enum value) over closed slices;
  /// `now >= 0` also counts each open segment up to `now` (live views).
  /// Costs the jobs from the oldest pending one on, not the whole run:
  /// the sums over the jobs before it are kept between calls (so two
  /// threads must not call it on one attributor at once).
  std::vector<double> cause_totals(double now = -1.0) const;
  /// Every job in id order, cause_totals() and the makespan.
  AttributionProfile profile() const;

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
  /// A job id's attribution and, while the job waits, its open segment.
  /// `job.id` stays 0 where the attributor never saw the id submitted.
  struct Row {
    JobAttribution job;
    std::optional<OpenSegment> open;
  };
  /// (member, index in its id range), as Federation::cluster_of and
  /// index_in_member compute it: ordered like the ids.
  struct Position {
    std::size_t member = 0;
    std::size_t index = 0;
  };
  static Position position_of(JobId id);
  Row* find(JobId id);  ///< nullptr unless a user job holds `id`
  static void close_segment(Row& row, double now);

  // What on_event runs.  A re-diagnosis (kBlocked) with a new cause or
  // blocker closes the open segment and opens the next, except that an
  // unattributed segment takes the cause instead (it held since submit).
  void submitted(const Event& event);
  void placed(const Event& event);
  void blocked(const Event& event);
  void started(const Event& event);
  void finished(const Event& event);

  /// Rows per member; a deque grows without copying what it holds.
  std::deque<std::deque<Row>> members_;
  /// The settled prefix, kept by cause_totals(): the rows before
  /// `settled_end_` are final and `settled_totals_` holds their sums, the
  /// additions a walk from the first job makes, in its order.
  mutable Position settled_end_;
  mutable std::array<double, kBlockReasonCount> settled_totals_{};
};

// --- sidecar analytics (tools/dmr_explain; tested directly) -----------------

/// Parse a sidecar document; empty `error` on success.
AttributionProfile parse_attribution(const std::string& json,
                                     std::string& error);
/// Read and parse `path`; an unreadable file sets `error`.
AttributionProfile load_attribution_file(const std::string& path,
                                         std::string& error);

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

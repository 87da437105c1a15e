// Virtual-time workload driver: runs a whole workload (fixed, flexible or
// mixed) through the resource manager on the discrete-event engine.
//
// Each job executes its application model in virtual time; flexible jobs
// call the DMR reconfiguring point between steps (through the same
// Manager policy/protocol code the real-mode runtime uses), pay the
// modeled redistribution cost, and continue at the granted size.  This is
// the machinery behind Figs. 3-12 and Table II.
//
// The simulation runs at reconfiguring-point granularity: a job's
// allocation and speed change only at its own checks, so one engine event
// ends every run of steps up to the next check the checking inhibitor
// lets through, or up to the job's last step.  The steps in between, and
// every step of a rigid job, are advanced in closed form by
// advance_steps, to the bit the clock one addition per step would reach:
// within the clock's binade each addition adds the same multiple of its
// ulp, so a run of them is one exact multiply-add, the first step the
// inhibitor lets through is estimated from its reopening time and then
// checked, and a tie, a zero, tiny or non-finite clock, or the addition
// that leaves the binade is one plain addition.
//
// The driver talks to a fed::Federation — one member cluster by default
// (built from DriverConfig::rms, behaviourally identical to driving the
// manager directly), or a multi-cluster federation when
// DriverConfig::federation names members.  All members share the one
// sim::Engine clock; submissions route through the federation's
// placement policy and every other protocol step lands on the owning
// member, so federated and single-cluster runs exercise the same code.
//
// The driver turns DriverConfig::hooks into event-stream sinks once and
// attaches them to every layer, next to its own bookkeeping sink (job
// starts, completions and the allocation series).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/models.hpp"
#include "dmr/engine.hpp"
#include "dmr/inhibitor.hpp"
#include "dmr/session.hpp"
#include "drv/cost_model.hpp"
#include "drv/metrics.hpp"
#include "fed/federation.hpp"
#include "obs/hooks.hpp"
#include "obs/trace_sink.hpp"
#include "rms/manager.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dmr::drv {

/// One workload entry bound to an application model.
struct JobPlan {
  double arrival = 0.0;
  apps::AppModel model;
  /// Nodes requested at submission (the paper submits at the size giving
  /// the best individual performance).
  int submit_nodes = 1;
  /// Whether this job exposes reconfiguring points.
  bool flexible = false;
  /// Moldable submission: the scheduler may start the job below its
  /// requested size (the paper's future-work extension).
  bool moldable = false;
  /// Backfill estimate; 0 derives it from the model at the submit size.
  double time_limit = 0.0;
  /// Partition constraint (empty = may run anywhere / span partitions).
  /// In a federation, also a routing constraint: only members with the
  /// named partition are eligible.
  std::string partition;
};

/// The end of a run of skipped steps: the clock after them, and how many
/// there were.
struct StepRun {
  double at = 0.0;
  int steps = 0;
};

/// Adds `step` to `at` until `n` steps are added or `inhibitor` would
/// let a check at the sum through (a null inhibitor, a rigid job's, never
/// does), and returns bit for bit what one `at += step` per step returns:
///   while (k < n && !(inhibitor && inhibitor->would_allow(at))) {
///     at += step;
///     ++k;
///   }
/// in O(binades crossed) instead of n dependent additions: the step
/// that reopens the inhibitor is estimated from Inhibitor::reopens_at and
/// confirmed by would_allow on it and its neighbours, with a bisection
/// (O(log n)) left for an estimate two steps do not settle.
StepRun advance_steps(double at, double step, int n,
                      const ::dmr::Inhibitor* inhibitor);

struct DriverConfig {
  /// Single-cluster configuration; ignored when `federation` has members.
  rms::RmsConfig rms;
  /// Multi-cluster mode: when `federation.clusters` is non-empty the
  /// driver runs the whole workload through this federation instead of
  /// a single manager built from `rms`.
  fed::FederationConfig federation;
  CostModel cost;
  /// Use dmr_icheck_status semantics (decide now, apply next step).
  bool asynchronous = false;
  /// Override every model's inhibitor period (negative = keep models').
  double sched_period_override = -1.0;
  /// Runtime <-> RMS negotiation cost charged on every non-inhibited
  /// check (the overhead the checking inhibitor exists to curb; only
  /// noticeable for micro-step applications, Section VIII-E).
  double check_overhead_seconds = 0.05;
  /// Observers to attach as sinks (all null by default = no overhead);
  /// the pointed-to objects must outlive the driver.
  obs::Hooks hooks;
};

class WorkloadDriver : private obs::Sink {
 public:
  WorkloadDriver(sim::Engine& engine, DriverConfig config);
  /// Detaches its sinks from the engine, which may outlive the driver.
  ~WorkloadDriver() override;

  /// Subscribe `sink` to every layer of the run (engine, federation,
  /// members, and the driver's own list, which also carries the service
  /// samples); it must outlive the driver.
  void attach(obs::Sink& sink);
  const obs::SinkList& sinks() const { return sinks_; }

  /// Schedule the plan's submission at its arrival, whether or not the
  /// engine is already running: a batch feeds every plan before run(),
  /// the resident service feeds them as they stream in.  Throws
  /// std::invalid_argument when the arrival lies before the current
  /// simulated clock — the driver never silently reorders a stale
  /// submission.  Arrival events ride sim::Lane::Arrival, so a
  /// submission scheduled mid-run interleaves with same-instant events
  /// exactly like one scheduled up front — the property the
  /// snapshot/replay machinery depends on.
  void submit_at(JobPlan plan);

  /// Run the engine to completion and check every job finished; returns
  /// the workload metrics (federation-wide, with per-member
  /// ClusterMetrics on multi-cluster runs).
  WorkloadMetrics run();

  /// Metrics over the jobs completed *so far* — callable mid-run (the
  /// resident service samples it between run_until() slices) and equal
  /// to run()'s result once the workload drains.  Empty windows (no
  /// arrivals yet, or nothing completed) yield zeroed metrics, never
  /// NaN.
  WorkloadMetrics collect_metrics() const;

  /// Jobs whose sessions completed so far.
  int completed() const { return completed_; }

  const sim::TraceRecorder& trace() const { return trace_; }
  /// The federation the driver runs against (a single member unless
  /// DriverConfig::federation named more).
  const fed::Federation& federation() const { return federation_; }
  fed::Federation& federation_mutable() { return federation_; }
  /// First member's manager — the whole system on single-cluster runs.
  const rms::Manager& manager() const { return federation_.manager(0); }
  /// Mutable access for attaching instrumentation (e.g. rms::Accounting)
  /// before run().  Federated runs attach per member via
  /// federation_mutable().
  rms::Manager& manager_mutable() { return federation_.manager(0); }

 private:
  /// One job's execution state.  The reconfiguring-point protocol lives
  /// entirely in the shared dmr::ReconfigEngine — the driver only models
  /// time: step durations, redistribution delays and check overhead.
  struct Exec {
    JobPlan plan;
    rms::JobId id = rms::kInvalidJob;
    int steps_left = 0;
    /// Constructed in place at submission (no per-job heap allocation).
    std::optional<::dmr::Session> session;
    /// Reconfiguring-point protocol state — only a flexible job ever
    /// negotiates, so rigid jobs never allocate one.
    std::unique_ptr<::dmr::ReconfigEngine> engine;
  };

  // The bookkeeping sink: starts, completions, allocation series.
  obs::Interest interest() const override;
  void on_event(const obs::Event& event) override;
  /// Record the federation-wide and `member`'s allocation series.
  void record_allocation(int member);

  /// The by_id_ slot of `id` (grown to hold it) and its lookup (null
  /// when `id` is not one of the driver's jobs).
  Exec*& exec_slot(rms::JobId id);
  Exec* find_exec(rms::JobId id) const;

  void submit(Exec& exec);
  void on_started(const rms::Job& job);
  /// What a reconfiguring point leaves to do before the next step.
  struct Resume {
    /// Seconds before the next step may start (0 when no action).
    double delay = 0.0;
    /// A shrink began: its drain completes once the delay is paid.
    bool drain = false;
  };

  /// A flexible job's first reconfiguring point, right after the
  /// allocation (Listing 2 checks at the top of the very first
  /// iteration: jobs submitted at their maximum are "scaled-down as soon
  /// as possible").
  void begin_execution(Exec& exec);
  /// Continue after a reconfiguring point: pay the delay, complete the
  /// drain of a shrink the point began, then run the next step.
  void proceed_after_check(Exec& exec, Resume resume);
  /// Schedule the end of the next step that reaches a check the
  /// inhibitor lets through, or of the last step, skipping the steps
  /// before it.
  void schedule_step(Exec& exec);
  void finish_step(Exec& exec);
  /// Runs the reconfiguring point.
  Resume reconfiguring_point(Exec& exec);
  /// Prices the outcome's data movement from the modeled redist::Report
  /// and adds it to the workload totals; returns the seconds it costs.
  double apply_outcome(Exec& exec, const rms::Outcome& outcome);
  /// Per-member slices + partition utilizations for run()'s metrics.
  void collect_cluster_metrics(WorkloadMetrics& metrics, double first_arrival,
                               double makespan) const;

  /// The DriverConfig settings read after construction; the members'
  /// cluster and manager configurations live in the federation only.
  struct Settings {
    CostModel cost;
    bool asynchronous;
    double sched_period_override;
    double check_overhead_seconds;
    /// DriverConfig::hooks.attr, whose totals collect_metrics reads.
    obs::WaitAttributor* attr;
  };

  sim::Engine& engine_;
  Settings config_;
  fed::Federation federation_;
  /// Shared virtual-clock connection all job sessions go through.
  std::shared_ptr<::dmr::Connection> connection_;
  sim::TraceRecorder trace_;
  util::StepSeries* completed_series_;
  util::StepSeries* allocated_series_;
  util::StepSeries* running_series_;
  /// Per member, its allocation series: [0] "allocated@<member>"
  /// (federated runs), [1 + p] partition p's "allocated:[<member>/]<name>"
  /// (multi-partition members).  Each is resolved on its first record, so
  /// the trace names the same series as recording by name would.
  std::vector<std::vector<util::StepSeries*>> member_series_;
  obs::SinkList sinks_;
  /// Sinks attached to engine_, detached again by the destructor.
  std::vector<obs::Sink*> dispatch_sinks_;
  /// The adapter rendering the stream into DriverConfig::hooks.trace.
  std::unique_ptr<obs::TraceSink> trace_sink_;
  /// A deque so Exec addresses stay stable for the event callbacks while
  /// jobs keep arriving — without a heap allocation per job.
  std::deque<Exec> execs_;
  /// Job id -> execution state, one row per member indexed by
  /// Federation::index_in_member: the lookup on every job start is two
  /// indexings and the table grows by appending, never rehashing.
  std::vector<std::vector<Exec*>> by_id_;
  int completed_ = 0;
  /// Workload-wide data-movement totals (from the modeled Reports).
  std::size_t bytes_redistributed_ = 0;
  double redistribution_seconds_ = 0.0;
};

}  // namespace dmr::drv

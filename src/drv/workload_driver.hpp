// Virtual-time workload driver: runs a whole workload (fixed, flexible or
// mixed) through the resource manager on the discrete-event engine.
//
// Each job executes its application model step by step; flexible jobs
// call the DMR reconfiguring point between steps (through the same
// Manager policy/protocol code the real-mode runtime uses), pay the
// modeled redistribution cost, and continue at the granted size.  This is
// the machinery behind Figs. 3-12 and Table II.
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
#include <unordered_map>
#include <vector>

#include "apps/models.hpp"
#include "dmr/engine.hpp"
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

  /// Queue a plan for run() to schedule.  Throws std::invalid_argument
  /// when the arrival lies before the current simulated clock — the
  /// driver never silently reorders a stale submission.
  void add(JobPlan plan);

  /// Incremental feed (service mode): schedule the submission right now,
  /// whether or not the engine is already running.  The arrival must not
  /// precede the current simulated clock (std::invalid_argument
  /// otherwise, same contract as add()).  Arrival events ride
  /// sim::Lane::Arrival, so a submission scheduled mid-run interleaves
  /// with same-instant events exactly like one scheduled up front — the
  /// property the snapshot/replay machinery depends on.
  void submit_at(JobPlan plan);

  /// Run to completion; returns the workload metrics (federation-wide,
  /// with per-member ClusterMetrics on multi-cluster runs).
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
    /// Arrival event already scheduled (submit_at feeds; run() skips).
    bool scheduled = false;
    /// Fixed step duration of a non-flexible job, computed once at start
    /// (a rigid allocation never changes, so neither does the gating
    /// speed).  0 = not cached (flexible job; recompute every step).
    double rigid_step_seconds = 0.0;
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

  Exec& enqueue(JobPlan plan);
  void schedule_arrival(Exec& exec);
  void submit(Exec& exec);
  void on_started(const rms::Job& job);
  /// First reconfiguring point, right after the allocation (Listing 2
  /// checks at the top of the very first iteration: jobs submitted at
  /// their maximum are "scaled-down as soon as possible").
  void begin_execution(Exec& exec);
  /// Continue after a reconfiguring point: pay `delay`, finish a pending
  /// shrink, then run the next step.
  void proceed_after_check(Exec& exec, double delay);
  void schedule_step(Exec& exec);
  void finish_step(Exec& exec);
  /// Runs the reconfiguring point; returns the delay before the next
  /// step may start (0 when no action).
  double reconfiguring_point(Exec& exec);
  /// Prices the outcome's data movement and stamps its redistribution
  /// fields from the modeled redist::Report.
  double apply_outcome(Exec& exec, rms::DmrOutcome& outcome);
  /// Per-member slices + partition utilizations for run()'s metrics.
  void collect_cluster_metrics(WorkloadMetrics& metrics, double first_arrival,
                               double makespan) const;

  sim::Engine& engine_;
  DriverConfig config_;
  fed::Federation federation_;
  /// Shared virtual-clock connection all job sessions go through.
  std::shared_ptr<::dmr::Connection> connection_;
  sim::TraceRecorder trace_;
  util::StepSeries* completed_series_;
  util::StepSeries* allocated_series_;
  util::StepSeries* running_series_;
  obs::SinkList sinks_;
  /// Sinks attached to engine_, detached again by the destructor.
  std::vector<obs::Sink*> dispatch_sinks_;
  /// The adapter rendering the stream into DriverConfig::hooks.trace.
  std::unique_ptr<obs::TraceSink> trace_sink_;
  /// A deque so Exec addresses stay stable for the event callbacks while
  /// jobs keep arriving — without a heap allocation per job.
  std::deque<Exec> execs_;
  /// Job id -> execution state; hashed (never iterated) — the id lookup
  /// runs on every job start/end.
  std::unordered_map<rms::JobId, Exec*> by_id_;
  int completed_ = 0;
  /// Workload-wide data-movement totals (from the modeled Reports).
  std::size_t bytes_redistributed_ = 0;
  double redistribution_seconds_ = 0.0;
};

}  // namespace dmr::drv

#include "drv/workload_driver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "chk/auditor.hpp"
#include "obs/attr.hpp"

namespace dmr::drv {

namespace {

using Limits = std::numeric_limits<double>;
static_assert(Limits::is_iec559 && Limits::round_style == std::round_to_nearest,
              "advance_steps reproduces binary64 round-to-nearest sums");

/// How the next `limit` additions of `at += step` behave while their sums
/// stay in at's binade [lo, 2 lo): there every double is a multiple of
/// u = ulp(at), so each addition adds `per_step`, the step rounded to a
/// multiple of u, and j of them sum to at + j * per_step exactly (the
/// product is below 2^52 u).
struct BinadeRun {
  double per_step = 0.0;
  /// The additions the form covers: 0 where it does not hold, and then
  /// the next addition is a plain one.
  int take = 0;
};

BinadeRun binade_run(double at, double step, int limit) {
  // Not for a negative or NaN step, nor for a clock that is not finite
  // or so small (below 2^-971) that 1 / ulp(at) overflows.
  if (!(at >= 0x1p-971 && at <= Limits::max() && step >= 0.0)) return {};
  constexpr std::uint64_t kMantissa = (std::uint64_t(1) << 52) - 1;
  const auto bits = std::bit_cast<std::uint64_t>(at);
  const double lo = std::bit_cast<double>(bits & ~kMantissa);
  const double u = lo * 0x1p-52;
  // The ulps from at up to 2 lo.  A step of that much or more (infinity
  // too) leaves the binade at once.
  const auto room =
      static_cast<std::int64_t>(kMantissa + 1 - (bits & kMantissa));
  if (!(step < static_cast<double>(room) * u)) return {};
  // step / u, exact and below 2^52 (1 / u is the power of two whose
  // exponent field is 2098 minus at's), rounded to the nearest whole
  // number by the 2^52 shift.
  const double inverse_u =
      std::bit_cast<double>((std::uint64_t(2098) - (bits >> 52)) << 52);
  const double units = step * inverse_u;
  const double stride = (units + 0x1p52) - 0x1p52;
  // A tie rounds to the even neighbour, which follows at's last bit.
  if (std::abs(units - stride) == 0.5) return {};
  // Below half an ulp (stride 0) every sum rounds back to at.  Else the
  // sums stay below 2 lo while j * stride < room; the product compares
  // in doubles, exactly below 2^53 and, rounding being monotone, never
  // below room when the exact one is not.
  if (static_cast<double>(limit) * stride < static_cast<double>(room)) {
    return {stride * u, limit};
  }
  const auto whole = static_cast<std::int64_t>(stride);
  return {stride * u, static_cast<int>((room - 1) / whole)};
}

/// A single-member federation built from the plain RmsConfig keeps one
/// driver code path: routing to one cluster is the identity, so the run
/// is behaviourally identical to driving the manager directly.
fed::FederationConfig make_federation(const DriverConfig& config) {
  if (!config.federation.clusters.empty()) return config.federation;
  fed::FederationConfig single;
  single.clusters.push_back(fed::ClusterSpec{"local", config.rms});
  return single;
}

}  // namespace

StepRun advance_steps(double at, double step, int n,
                      const ::dmr::Inhibitor* inhibitor) {
  const auto allows = [inhibitor](double t) {
    return inhibitor != nullptr && inhibitor->would_allow(t);
  };
  int k = 0;
  while (k < n && !allows(at)) {
    const auto [per_step, take] = binade_run(at, step, n - k);
    if (take == 0) {
      at += step;
      ++k;
      continue;
    }
    const auto sum = [&](int j) {
      return at + static_cast<double>(j) * per_step;
    };
    if (!allows(sum(take))) {
      at = sum(take);
      k += take;
      continue;
    }
    // would_allow(t) tests fl(t - last) >= period, which is monotone in
    // t, so one sum in (0, take] is the first it lets through (sum(0) =
    // at is not).  Aim at the first sum that reaches the reopening time,
    // clamped into [1, take] (the estimate may be <= 0, past take or
    // infinite); rounding can put the answer next to it, so walk down
    // while the probe is let through and up while it is not, and bisect
    // what is left if two steps do not settle it.
    int below = 0;
    int above = take;
    const double ahead = std::ceil((inhibitor->reopens_at() - at) / per_step);
    int probe = 1;
    if (ahead >= static_cast<double>(take)) {
      probe = take;
    } else if (ahead > 1.0) {
      probe = static_cast<int>(ahead);
    }
    for (int walked = 0; above - below > 1; ++walked) {
      if (walked > 2) probe = below + (above - below) / 2;
      const bool open = allows(sum(probe));
      (open ? above : below) = probe;
      probe += open ? -1 : 1;
    }
    return {sum(above), k + above};
  }
  return {at, k};
}

WorkloadDriver::WorkloadDriver(sim::Engine& engine, DriverConfig config)
    : engine_(engine),
      config_{config.cost, config.asynchronous, config.sched_period_override,
              config.check_overhead_seconds, config.hooks.attr},
      federation_(make_federation(config)),
      connection_(std::make_shared<::dmr::Connection>(
          federation_, [this] { return engine_.now(); })),
      trace_(engine),
      completed_series_(trace_.series_handle("completed")),
      allocated_series_(trace_.series_handle("allocated")),
      running_series_(trace_.series_handle("running")),
      member_series_(static_cast<std::size_t>(federation_.cluster_count())),
      by_id_(static_cast<std::size_t>(federation_.cluster_count())) {
  federation_.attach(*this);
  const obs::Hooks& hooks = config.hooks;
  if (hooks.trace != nullptr) {
    trace_sink_ = std::make_unique<obs::TraceSink>(*hooks.trace, federation_);
    attach(*trace_sink_);
  }
  if (hooks.profiler != nullptr) attach(*hooks.profiler);
  if (hooks.auditor != nullptr) attach(*hooks.auditor);
  if (hooks.attr != nullptr) attach(*hooks.attr);
}

WorkloadDriver::~WorkloadDriver() {
  for (obs::Sink* sink : dispatch_sinks_) engine_.detach(*sink);
}

void WorkloadDriver::attach(obs::Sink& sink) {
  if ((sink.interest() & obs::bit(obs::EventKind::kDispatch)) != 0) {
    engine_.attach(sink);
    dispatch_sinks_.push_back(&sink);
  }
  federation_.attach(sink);
  sinks_.attach(sink);
}

obs::Interest WorkloadDriver::interest() const {
  return obs::kinds(obs::EventKind::kStarted, obs::EventKind::kFinished,
                    obs::EventKind::kAllocChanged);
}

void WorkloadDriver::on_event(const obs::Event& event) {
  if (event.kind == obs::EventKind::kAllocChanged) {
    record_allocation(event.member);
    return;
  }
  const rms::Job& job = event.manager->job(event.job);
  if (job.resizer) return;
  if (event.kind == obs::EventKind::kStarted) {
    on_started(job);
    return;
  }
  ++completed_;
  trace_.record_into(completed_series_, completed_);
}

void WorkloadDriver::record_allocation(int member) {
  int allocated = 0;
  int running = 0;
  for (int c = 0; c < federation_.cluster_count(); ++c) {
    allocated += federation_.manager(c).allocated_nodes();
    running += federation_.manager(c).running_jobs();
  }
  trace_.record_into(allocated_series_, allocated);
  trace_.record_into(running_series_, running);
  // The member's own occupancy on federated runs, and per partition for
  // the heterogeneous utilization report (qualified by member on
  // federated runs).
  const bool multi = federation_.cluster_count() > 1;
  const rms::Manager& manager = federation_.manager(member);
  const rms::Cluster& cluster = manager.cluster();
  const int partitions =
      cluster.partition_count() > 1 ? cluster.partition_count() : 0;
  if (!multi && partitions == 0) return;
  std::vector<util::StepSeries*>& series =
      member_series_[static_cast<std::size_t>(member)];
  if (series.empty()) {
    series.assign(static_cast<std::size_t>(1 + partitions), nullptr);
  }
  const std::string& name = federation_.cluster_name(member);
  if (multi) {
    if (series[0] == nullptr) {
      series[0] = trace_.series_handle("allocated@" + name);
    }
    trace_.record_into(series[0], manager.allocated_nodes());
  }
  for (int p = 0; p < partitions; ++p) {
    util::StepSeries*& handle = series[static_cast<std::size_t>(1 + p)];
    if (handle == nullptr) {
      handle = trace_.series_handle(
          multi ? "allocated:" + name + "/" + cluster.partition(p).name
                : "allocated:" + cluster.partition(p).name);
    }
    trace_.record_into(handle, cluster.allocated_in(p));
  }
}

WorkloadDriver::Exec*& WorkloadDriver::exec_slot(rms::JobId id) {
  std::vector<Exec*>& row =
      by_id_[static_cast<std::size_t>(federation_.cluster_of(id))];
  const std::size_t slot = federation_.index_in_member(id);
  if (slot >= row.size()) row.resize(slot + 1, nullptr);
  return row[slot];
}

WorkloadDriver::Exec* WorkloadDriver::find_exec(rms::JobId id) const {
  const std::vector<Exec*>& row =
      by_id_[static_cast<std::size_t>(federation_.cluster_of(id))];
  const std::size_t slot = federation_.index_in_member(id);
  return slot < row.size() ? row[slot] : nullptr;
}

void WorkloadDriver::submit_at(JobPlan plan) {
  if (plan.arrival < engine_.now()) {
    throw std::invalid_argument(
        "WorkloadDriver: job '" + plan.model.name + "' arrival " +
        std::to_string(plan.arrival) + " precedes the simulated clock " +
        std::to_string(engine_.now()) +
        " (stale submissions are rejected, not reordered)");
  }
  if (plan.time_limit <= 0.0) {
    // Scale the estimate by the slowest node speed the job can land on
    // anywhere in the federation: its named partition's speed where
    // pinned, the slowest spanning-pool speed otherwise.  Overestimating
    // the limit keeps the EASY reservation conservative; underestimating
    // would let backfill squat on reserved nodes.
    const double speed = federation_.conservative_speed(plan.partition);
    plan.time_limit = plan.model.step_seconds(plan.submit_nodes) *
                      plan.model.iterations * 1.2 / speed;
  }
  Exec& exec = execs_.emplace_back();
  exec.plan = std::move(plan);
  engine_.schedule_at(
      exec.plan.arrival, [this, e = &exec] { submit(*e); },
      sim::Lane::Arrival);
}

void WorkloadDriver::submit(Exec& exec) {
  rms::JobSpec spec;
  spec.name = exec.plan.model.name;
  spec.requested_nodes = exec.plan.submit_nodes;
  spec.min_nodes = exec.plan.model.request.min_procs;
  spec.flexible = exec.plan.flexible;
  spec.moldable = exec.plan.moldable;
  spec.time_limit = exec.plan.time_limit;
  spec.partition = exec.plan.partition;
  exec.session.emplace(connection_);
  exec.id = exec.session->submit(std::move(spec));
  if (exec.plan.flexible) {
    const double period = config_.sched_period_override >= 0.0
                              ? config_.sched_period_override
                              : exec.plan.model.sched_period;
    exec.engine =
        std::make_unique<::dmr::ReconfigEngine>(*exec.session, period);
  }
  exec_slot(exec.id) = &exec;
  exec.session->schedule();
}

void WorkloadDriver::on_started(const rms::Job& job) {
  Exec* const found = find_exec(job.id);
  if (found == nullptr) return;  // not one of ours (shouldn't happen)
  Exec& exec = *found;
  exec.steps_left = exec.plan.model.iterations;
  // The start is reported inside a Manager scheduling pass.  A flexible
  // job's first reconfiguring point mutates the manager, so it runs in a
  // fresh event (a reentrancy hazard otherwise).  A rigid job never
  // checks: scheduling the end of its steps only reads the manager, so
  // it happens here, without the deferring event.
  if (!exec.plan.flexible) {
    schedule_step(exec);
    return;
  }
  engine_.schedule_after(0.0, [this, &exec] { begin_execution(exec); });
}

void WorkloadDriver::begin_execution(Exec& exec) {
  proceed_after_check(exec, reconfiguring_point(exec));
}

void WorkloadDriver::proceed_after_check(Exec& exec, Resume resume) {
  if (resume.delay <= 0.0) {
    // Nothing to pay for; a shrink still completes its drain before the
    // next step.
    if (resume.drain) exec.engine->complete_shrink();
    schedule_step(exec);
    return;
  }
  engine_.schedule_after(resume.delay, [this, &exec, drain = resume.drain] {
    // A shrink's draining nodes are released once the redistribution
    // (the modeled delay) completes.
    if (drain) exec.engine->complete_shrink();
    schedule_step(exec);
  });
}

void WorkloadDriver::schedule_step(Exec& exec) {
  const rms::Job& job = federation_.job(exec.id);
  // Synchronous iterations: the slowest node in the allocation gates the
  // step (speed 1.0 everywhere on a homogeneous cluster).
  const double speed = federation_.cluster_for(exec.id).min_speed(job.nodes);
  const double duration =
      exec.plan.model.step_seconds(job.allocated()) / speed;
  // A job's allocation and speed change only at its own checks, and an
  // inhibited check touches nothing, so the steps up to the next check
  // the inhibitor lets through (a rigid job never checks) run back to
  // back: one event ends them all, at exactly the clock one event per
  // step would reach.
  const bool rigid = !exec.plan.flexible;
  const ::dmr::Inhibitor inhibitor =
      rigid ? ::dmr::Inhibitor() : exec.engine->inhibitor();
  const ::dmr::Inhibitor* stop = rigid ? nullptr : &inhibitor;
  const StepRun skipped = advance_steps(engine_.now() + duration, duration,
                                        exec.steps_left - 1, stop);
  exec.steps_left -= skipped.steps;
  engine_.schedule_at(skipped.at, [this, &exec] { finish_step(exec); });
}

void WorkloadDriver::finish_step(Exec& exec) {
  --exec.steps_left;
  if (exec.steps_left <= 0) {
    exec.session->finish();
    return;
  }
  proceed_after_check(exec, exec.plan.flexible ? reconfiguring_point(exec)
                                               : Resume{});
}

double WorkloadDriver::apply_outcome(Exec& exec,
                                     const rms::Outcome& outcome) {
  if (outcome.action == rms::Action::None) return 0.0;
  const rms::Job& job = federation_.job(exec.id);
  // The modeled movement is the Report this substrate "measures": the
  // workload totals sum it exactly like a real redistribution's.
  // Transfer bandwidth scales with the allocation's gating partition
  // speed.
  const double node_speed =
      federation_.cluster_for(exec.id).min_speed(job.nodes);
  const redist::Report moved =
      config_.cost.movement(exec.plan.model.state_bytes, outcome.old_size,
                            outcome.new_size, node_speed);
  bytes_redistributed_ += moved.bytes_moved;
  redistribution_seconds_ += moved.seconds;
  if (sinks_.wants(obs::EventKind::kRedistributed)) {
    const int member = federation_.cluster_of(exec.id);
    sinks_.emit({.kind = obs::EventKind::kRedistributed, .job = exec.id,
                 .member = member, .now = engine_.now(),
                 .old_size = outcome.old_size, .new_size = outcome.new_size,
                 .manager = &federation_.manager(member),
                 .action = outcome.action,
                 .bytes = exec.plan.model.state_bytes, .report = &moved});
  }
  return config_.cost.protocol_seconds(outcome.new_size) + moved.seconds;
}

WorkloadDriver::Resume WorkloadDriver::reconfiguring_point(Exec& exec) {
  // The negotiate/defer/apply protocol is the shared engine's job; the
  // driver only prices the result in virtual time.  The asynchronous
  // call overlaps negotiation with the next step, so the per-check
  // overhead is hidden (that is its selling point).
  const auto outcome = exec.engine->check(
      config_.asynchronous ? ::dmr::Mode::Async : ::dmr::Mode::Sync,
      exec.plan.model.request);
  if (!outcome) return {};  // inhibited: the RMS was never contacted
  const double overhead =
      config_.asynchronous ? 0.0 : config_.check_overhead_seconds;
  // The engine leaves exactly such a shrink pending until its drain
  // completes.
  const bool drain =
      outcome->action == rms::Action::Shrink && !outcome->aborted;
  return {overhead + apply_outcome(exec, *outcome), drain};
}

void WorkloadDriver::collect_cluster_metrics(WorkloadMetrics& metrics,
                                             double first_arrival,
                                             double makespan) const {
  const bool multi = federation_.cluster_count() > 1;
  for (int c = 0; c < federation_.cluster_count(); ++c) {
    const std::string& name = federation_.cluster_name(c);
    const rms::Manager& manager = federation_.manager(c);
    const rms::Cluster& cluster = manager.cluster();
    if (cluster.partition_count() > 1) {
      for (int p = 0; p < cluster.partition_count(); ++p) {
        PartitionUtilization part;
        part.name = multi ? name + "/" + cluster.partition(p).name
                          : cluster.partition(p).name;
        part.nodes = cluster.partition(p).nodes;
        const std::string series = "allocated:" + part.name;
        if (trace_.has(series)) {
          part.utilization =
              trace_.average(series, first_arrival, makespan) / part.nodes;
        }
        metrics.partitions.push_back(std::move(part));
      }
    }
    if (!multi) continue;
    ClusterMetrics member;
    member.name = name;
    member.nodes = cluster.size();
    const std::string series = "allocated@" + name;
    if (trace_.has(series)) {
      member.utilization =
          trace_.average(series, first_arrival, makespan) / member.nodes;
    }
    std::vector<double> waits;
    for (const rms::Job* job : manager.jobs()) {
      if (job->state != rms::JobState::Completed) continue;
      ++member.jobs;
      waits.push_back(job->wait_time());
      member.makespan = std::max(member.makespan, job->end_time);
    }
    member.wait = util::summarize(std::move(waits));
    metrics.clusters.push_back(std::move(member));
  }
}

WorkloadMetrics WorkloadDriver::run() {
  engine_.run();
  if (!federation_.all_done()) {
    throw std::logic_error("WorkloadDriver: engine drained with live jobs");
  }
  return collect_metrics();
}

WorkloadMetrics WorkloadDriver::collect_metrics() const {
  WorkloadMetrics metrics;
  std::vector<double> waits, execs, completions;
  waits.reserve(static_cast<std::size_t>(completed_));
  execs.reserve(static_cast<std::size_t>(completed_));
  completions.reserve(static_cast<std::size_t>(completed_));
  double makespan = 0.0;
  for (int c = 0; c < federation_.cluster_count(); ++c) {
    for (const rms::Job* job : federation_.manager(c).jobs()) {
      if (job->state != rms::JobState::Completed) continue;
      waits.push_back(job->wait_time());
      execs.push_back(job->execution_time());
      completions.push_back(job->completion_time());
      makespan = std::max(makespan, job->end_time);
      ++metrics.jobs;
    }
  }
  metrics.makespan = makespan;
  metrics.wait = util::summarize(std::move(waits));
  metrics.execution = util::summarize(std::move(execs));
  metrics.completion = util::summarize(std::move(completions));
  // Utilization integrates over [first arrival, makespan]: a staggered
  // workload's dead lead-in (nothing submitted yet) is not the cluster's
  // fault and used to understate the metric.  An empty window — no
  // arrivals yet, or nothing completed (makespan == first arrival) —
  // leaves utilization at 0 instead of dividing by a zero-length span.
  double first_arrival = makespan;
  for (const auto& exec : execs_) {
    first_arrival = std::min(first_arrival, exec.plan.arrival);
  }
  if (!execs_.empty() && trace_.has("allocated") && makespan > first_arrival) {
    metrics.utilization =
        trace_.average("allocated", first_arrival, makespan) /
        federation_.total_nodes();
    collect_cluster_metrics(metrics, first_arrival, makespan);
  }
  const rms::Manager::Counters counters = federation_.counters();
  metrics.expands = counters.expands;
  metrics.shrinks = counters.shrinks;
  metrics.checks = counters.checks;
  metrics.aborted_expands = counters.aborted_expands;
  metrics.schedule_requests = counters.schedule_requests;
  metrics.schedule_passes = counters.schedule_passes;
  metrics.schedule_passes_saved = counters.schedule_passes_saved;
  metrics.bytes_redistributed = bytes_redistributed_;
  metrics.redistribution_seconds = redistribution_seconds_;
  if (config_.attr != nullptr) {
    const std::vector<double> totals = config_.attr->cause_totals();
    metrics.wait_causes.reserve(static_cast<std::size_t>(
        obs::kBlockReasonCount));
    for (int r = 0; r < obs::kBlockReasonCount; ++r) {
      metrics.wait_causes.push_back(WaitCause{
          obs::block_reason_key(static_cast<obs::BlockReason>(r)),
          totals[static_cast<std::size_t>(r)]});
    }
  }
  return metrics;
}

}  // namespace dmr::drv

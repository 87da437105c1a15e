#include "svc/service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "drv/plan.hpp"

namespace dmr::svc {

namespace {

/// Submission ring capacity (a power of two).
constexpr std::size_t kQueueCapacity = 1024;

/// The plan of an accepted request.  The request is outside input: a
/// malformed one is rejected and its bounds are clamped to contain its
/// size before the shared conversion sees them.
drv::JobPlan plan_of(const JobRequest& request) {
  if (request.nodes <= 0 || request.steps <= 0 || request.runtime < 0.0 ||
      !std::isfinite(request.arrival)) {
    throw std::invalid_argument("Service: malformed job request");
  }
  wl::WorkloadJob job;
  job.arrival = request.arrival;
  job.nodes = request.nodes;
  job.runtime = request.runtime;
  job.min_nodes = std::max(1, request.min_nodes);
  job.max_nodes = std::max(request.nodes, request.max_nodes);
  drv::PlanShape shape;
  shape.steps = request.steps;
  shape.flexible = request.flexible;
  shape.moldable = request.moldable;
  shape.state_bytes = request.state_bytes;
  drv::JobPlan plan = drv::plan_job(job, shape);
  plan.partition = request.partition;
  return plan;
}

/// The driver config the service actually runs: the caller's, with the
/// service-owned attributor patched in when wait attribution is on and
/// no external one was supplied.  config_ itself stays untouched so
/// snapshots/forks never carry a dangling hook pointer.
drv::DriverConfig attributed_driver(const ServiceConfig& config,
                                    obs::WaitAttributor* attr) {
  drv::DriverConfig patched = config.driver;
  if (config.attribute_waits && patched.hooks.attr == nullptr) {
    patched.hooks.attr = attr;
  }
  return patched;
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(config),
      attr_ptr_(config.driver.hooks.attr != nullptr
                    ? config.driver.hooks.attr
                    : (config.attribute_waits ? &attr_ : nullptr)),
      driver_(engine_, attributed_driver(config, &attr_)),
      queue_(kQueueCapacity),
      window_(config.window, config.sample_period) {
  // The windowed collectors read the same event stream the trace does.
  driver_.attach(window_);
  // The sampler chain: one Lane::Sample event per period, rescheduling
  // itself forever.  Sample events fire after every state-changing event
  // at the same instant, so a sample at t reports the settled state.
  sampler_ = [this] {
    take_sample();
    engine_.schedule_after(config_.sample_period, sampler_, sim::Lane::Sample);
  };
  engine_.schedule_after(config_.sample_period, sampler_, sim::Lane::Sample);
}

bool Service::submit(JobRequest request) {
  if (request.arrival < engine_.now()) {
    ++rejected_stale_;
    return false;
  }
  // A malformed request throws here, before it can enter the log that
  // snapshots replay.
  drv::JobPlan plan = plan_of(request);
  if (first_arrival_ < 0.0 || request.arrival < first_arrival_) {
    first_arrival_ = request.arrival;
  }
  log_.push_back(request);
  driver_.submit_at(std::move(plan));
  return true;
}

void Service::pump() {
  JobRequest request;
  while (queue_.pop(request)) submit(std::move(request));
}

void Service::advance_to(double t) {
  // The sampler chain keeps the queue non-empty, so a NaN or infinite
  // target would never return.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("Service: advance_to a non-finite time");
  }
  if (t < engine_.now()) {
    throw std::invalid_argument("Service: advance_to into the past");
  }
  pump();
  engine_.run_until(t);
}

bool Service::drain(double max_sim_time) {
  if (std::isnan(max_sim_time)) {
    throw std::invalid_argument("Service: drain until NaN");
  }
  for (;;) {
    pump();
    if (all_done() && queue_.empty()) return true;
    if (engine_.now() >= max_sim_time) return false;
    advance_to(std::min(max_sim_time, engine_.now() + config_.sample_period));
  }
}

void Service::take_sample() {
  MetricsSample sample;
  sample.time = engine_.now();
  sample.completed_total = driver_.completed();
  window_.fill(sample);
  const fed::Federation& federation = driver_.federation();
  int pending = 0;
  for (int c = 0; c < federation.cluster_count(); ++c) {
    pending +=
        static_cast<int>(federation.manager(c).pending_queue().size());
  }
  sample.queue_depth = pending;
  sample.ring_depth = static_cast<int>(queue_.size());
  // Utilization over the trailing window, clipped to the first arrival:
  // an empty window (nothing submitted yet, or a zero-length span)
  // reports 0 instead of dividing by zero.
  const double t1 = engine_.now();
  double t0 = std::max(0.0, t1 - window_.window_seconds());
  if (first_arrival_ >= 0.0) t0 = std::max(t0, first_arrival_);
  const sim::TraceRecorder& trace = driver_.trace();
  if (first_arrival_ >= 0.0 && t1 > t0 && trace.has("allocated")) {
    sample.utilization =
        trace.average("allocated", t0, t1) / federation.total_nodes();
  }
  sample.submitted_total = accepted();
  sample.rejected_full_total =
      static_cast<long long>(queue_.rejected_full());
  sample.rejected_stale_total = rejected_stale_;
  if (attr_ptr_ != nullptr) {
    // Open segments count up to the sample instant so a live view shows
    // waits as they accrue, not only after the job starts.
    sample.cause_seconds = attr_ptr_->cause_totals(t1);
  }
  // Lane::Sample fires after every state change at the same instant, so
  // sinks see the settled post-event state.
  const obs::SinkList& sinks = driver_.sinks();
  if (sinks.wants(obs::EventKind::kSample)) {
    sinks.emit({.kind = obs::EventKind::kSample, .now = t1,
                .federation = &federation, .sample = &sample});
  }
  window_.rotate();
  samples_.push_back(std::move(sample));
}

void Service::add_nodes(int count) {
  driver_.federation_mutable().add_nodes(count, engine_.now());
  driver_.federation_mutable().schedule(engine_.now());
}

}  // namespace dmr::svc

#include "child.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "workloads.hpp"

namespace dmrbench {

using namespace dmr;

namespace {

constexpr std::pair<Mode, const char*> kModeNames[] = {
    {Mode::kTimed, "timed"},
    {Mode::kTraced, "traced"},
    {Mode::kSinkTrace, "sink-trace"},
    {Mode::kSinkProfiler, "sink-profiler"},
    {Mode::kSinkAuditor, "sink-auditor"},
    {Mode::kSinkAttr, "sink-attr"},
    {Mode::kAttrOff, "attr-off"},
};

double to_seconds(Clock::duration duration) {
  return std::chrono::duration<double>(duration).count();
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// What one child measured, printed for the parent.  Set-up and the
/// measured section are also reported as slices: pieces of identical
/// work in every child of one workload and seed, so the parent can take
/// the fastest child's time per slice (see slice_min_sum in parent.cpp).
struct Report {
  std::vector<std::pair<std::string, double>> values;
  std::vector<double> setup;
  std::vector<double> measured;
  std::string digest;
  long long jobs = 0;
  long long completed = 0;
  long long checks_failed = 0;

  void set(const char* key, double value) { values.emplace_back(key, value); }

  void fail(const std::string& what) {
    ++checks_failed;
    std::fprintf(stderr, "dmrbench: check failed: %s\n", what.c_str());
  }

  /// The set-up phases as slices, and their per-layer metrics.
  void add_setup(const SetupTimes& times) {
    setup.insert(setup.end(), {times.generate, times.swf_text, times.swf_parse,
                               times.shape, times.plan});
    set("wl.generate_s", times.generate);
    set("wl.swf_text_s", times.swf_text);
    set("wl.swf_parse_s", times.swf_parse);
    set("wl.shape_s", times.shape);
    set("wl.parse_records_per_s",
        ratio(static_cast<double>(times.parsed_records), times.swf_parse));
  }

  void print() const {
    double setup_s = 0.0;
    for (const double slice : setup) setup_s += slice;
    double measured_s = 0.0;
    for (const double slice : measured) measured_s += slice;
    std::printf("digest %s\njobs %lld\ncompleted %lld\nchecks_failed %lld\n",
                digest.c_str(), jobs, completed, checks_failed);
    std::printf("setup_s %.17g\nmeasured_s %.17g\njobs_per_s %.17g\n", setup_s,
                measured_s, ratio(static_cast<double>(completed), measured_s));
    // VmHWM of this process's own address space.  Not the parent's
    // wait4 ru_maxrss: after exec that keeps the high-water mark of the
    // address space the child replaced, i.e. of the spawning parent.
    std::printf("peak_rss_mb %.17g\n",
                static_cast<double>(obs::Profiler::peak_rss_kb()) / 1024.0);
    for (const auto& [key, value] : values) {
      std::printf("%s %.17g\n", key.c_str(), value);
    }
    for (const auto& [key, slices] : {std::pair{"setup_s", &setup},
                                      std::pair{"measured_s", &measured}}) {
      std::printf("slices %s", key);
      for (const double slice : *slices) std::printf(" %.9g", slice);
      std::printf("\n");
    }
    std::printf("end\n");
    std::fflush(stdout);
  }
};

void report_counters(Report& report, const drv::WorkloadMetrics& totals) {
  report.set("rms.schedule_requests",
             static_cast<double>(totals.schedule_requests));
  report.set("rms.schedule_passes", static_cast<double>(totals.schedule_passes));
  report.set("rms.pass_yield",
             ratio(static_cast<double>(totals.schedule_passes),
                   static_cast<double>(totals.schedule_requests)));
  const auto resizes = static_cast<double>(totals.expands + totals.shrinks);
  report.set("rms.checks", static_cast<double>(totals.checks));
  report.set("rms.resizes", resizes);
  report.set("rms.action_yield",
             ratio(resizes, static_cast<double>(totals.checks)));
  report.set("rms.aborted_expands", static_cast<double>(totals.aborted_expands));
}

void add_counters(drv::WorkloadMetrics& totals,
                  const drv::WorkloadMetrics& metrics) {
  totals.schedule_requests += metrics.schedule_requests;
  totals.schedule_passes += metrics.schedule_passes;
  totals.checks += metrics.checks;
  totals.expands += metrics.expands;
  totals.shrinks += metrics.shrinks;
  totals.aborted_expands += metrics.aborted_expands;
}

// --- batch workloads: timed and sink-attached runs ---------------------------

/// The observers a sink child attaches, fresh per cell so none carries
/// state from one independent run into the next.
struct Sinks {
  obs::TraceRecorder trace;
  obs::Profiler profiler;
  chk::Auditor auditor;
  obs::WaitAttributor attr;

  obs::Hooks hooks(Mode mode) {
    obs::Hooks hooks;
    if (mode == Mode::kSinkTrace) hooks.trace = &trace;
    if (mode == Mode::kSinkProfiler) hooks.profiler = &profiler;
    if (mode == Mode::kSinkAuditor) hooks.auditor = &auditor;
    if (mode == Mode::kSinkAttr) hooks.attr = &attr;
    return hooks;
  }
};

/// Events per measured slice: a few milliseconds, short against the
/// bursts of noise from other tenants that the parent's per-slice
/// minimum skips.
constexpr std::size_t kSliceEvents = 50000;

/// The measured section dispatches every cell's events to completion
/// (engine.run() in fixed-size slices) and collects its metrics, exactly
/// what driver.run() does once the arrivals are scheduled.  Building
/// plans and drivers and scheduling arrivals is set-up; rendering the
/// digest is neither.
Report run_batch(Workload workload, Mode mode, std::uint64_t seed,
                 bool smoke) {
  Report report;
  SetupTimes times;
  std::vector<Cell> cells = build_cells(workload, seed, smoke, times);
  report.add_setup(times);
  double plan_s = times.plan;
  Digest digest;
  std::uint64_t events = 0;
  for (Cell& cell : cells) {
    const auto sinks =
        mode == Mode::kTimed ? nullptr : std::make_unique<Sinks>();
    Clock::time_point start = Clock::now();
    drv::DriverConfig config = cell.config;
    if (sinks != nullptr) config.hooks = sinks->hooks(mode);
    sim::Engine engine;
    drv::WorkloadDriver driver(engine, config);
    report.jobs += static_cast<long long>(cell.plans.size());
    for (drv::JobPlan& plan : cell.plans) driver.submit_at(std::move(plan));
    report.setup.push_back(seconds_since(start));
    plan_s += report.setup.back();

    for (;;) {
      start = Clock::now();
      const std::size_t fired = engine.run(kSliceEvents);
      report.measured.push_back(seconds_since(start));
      if (fired < kSliceEvents) break;
    }
    start = Clock::now();
    const drv::WorkloadMetrics metrics = driver.collect_metrics();
    report.measured.push_back(seconds_since(start));

    if (!driver.federation().all_done()) {
      report.fail("engine drained with live jobs");
    }
    report.completed += driver.completed();
    events += engine.executed();
    digest_cell(workload, digest, driver, metrics);
    if (mode == Mode::kSinkAuditor) {
      const chk::Report audit = sinks->auditor.report();
      if (!audit.ok() || audit.total_checks() == 0) {
        report.fail("auditor: " + audit.describe());
      }
    }
  }
  report.digest = digest.hex();
  double measured = 0.0;
  for (const double slice : report.measured) measured += slice;
  report.set("drv.plan_s", plan_s);
  report.set("sim.events", static_cast<double>(events));
  report.set("sim.events_per_s", ratio(static_cast<double>(events), measured));
  return report;
}

// --- batch workloads: the step-classified trace --------------------------------

/// Times every place() call of the built-in policy it wraps; installed
/// through FederationConfig::policy, so routing decisions are unchanged.
class TimedPlacement final : public fed::PlacementPolicy {
 public:
  explicit TimedPlacement(std::unique_ptr<fed::PlacementPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  int place(const JobSpec& spec, const std::vector<fed::ClusterStatus>& clusters,
            const std::vector<int>& eligible) override {
    const Clock::time_point start = Clock::now();
    const int picked = inner_->place(spec, clusters, eligible);
    elapsed_ += Clock::now() - start;
    ++calls_;
    return picked;
  }

  Clock::duration elapsed() const { return elapsed_; }
  long long calls() const { return calls_; }

 private:
  std::unique_ptr<fed::PlacementPolicy> inner_;
  Clock::duration elapsed_{};
  long long calls_ = 0;
};

/// A step that ran a real schedule pass is rms.sched; else one that ran
/// an Algorithm 1 check is rms.check; anything else is a plain driver
/// step (arrival, application step, redistribution delay).
enum StepClass { kDrvStep, kRmsSched, kRmsCheck, kStepClasses };

constexpr const char* kClassNames[kStepClasses][3] = {
    {"drv.step_events", "drv.step_ns", "drv.step_share"},
    {"rms.sched_events", "rms.sched_event_ns", "rms.sched_share"},
    {"rms.check_events", "rms.check_event_ns", "rms.check_share"},
};

struct StepTrace {
  /// Wall time of the stepping loops, bookkeeping included.
  Clock::duration stepped{};
  /// Per-class self time: the step's wall time minus the placement time
  /// inside it.  Each step's time includes about one clock read.
  Clock::duration self[kStepClasses]{};
  long long steps[kStepClasses] = {};
  Clock::duration place{};
  long long place_calls = 0;
  std::size_t queue_peak = 0;
};

void step_to_completion(sim::Engine& engine, const fed::Federation& federation,
                        const TimedPlacement* placement, StepTrace& trace) {
  // Only two counters decide the class: read them straight from each
  // member so the per-step bookkeeping stays small against a ~100 ns step.
  std::vector<const rms::Manager::Counters*> members;
  for (int c = 0; c < federation.cluster_count(); ++c) {
    members.push_back(&federation.manager(c).counters());
  }
  const auto tally = [&members] {
    std::pair<long long, long long> passes_checks{0, 0};
    for (const rms::Manager::Counters* counters : members) {
      passes_checks.first += counters->schedule_passes;
      passes_checks.second += counters->checks;
    }
    return passes_checks;
  };
  std::pair<long long, long long> before = tally();
  Clock::duration place_before =
      placement != nullptr ? placement->elapsed() : Clock::duration{};
  const Clock::time_point begin = Clock::now();
  for (;;) {
    const Clock::time_point start = Clock::now();
    const bool fired = engine.step();
    const Clock::time_point end = Clock::now();
    if (!fired) break;
    const std::pair<long long, long long> after = tally();
    const StepClass step_class = after.first > before.first    ? kRmsSched
                                 : after.second > before.second ? kRmsCheck
                                                                : kDrvStep;
    Clock::duration placed{};
    if (placement != nullptr) {
      placed = placement->elapsed() - place_before;
      place_before = placement->elapsed();
    }
    trace.self[step_class] += (end - start) - placed;
    ++trace.steps[step_class];
    trace.queue_peak = std::max(trace.queue_peak, engine.queued());
    before = after;
  }
  trace.stepped += Clock::now() - begin;
}

/// One job's step chain for the engine-only replay: its arrival, then
/// `steps` events `step` seconds apart.
struct Chain {
  double arrival;
  double step;
  int steps;
};

/// Nanoseconds per event of an engine-only replay of `chains`, through
/// the sim::Engine API alone: every callback only schedules the next
/// link of its chain.
double dispatch_ns(const std::vector<Chain>& chains) {
  struct Replay {
    sim::Engine engine;
    const std::vector<Chain>* chains = nullptr;
    std::vector<int> left;
  };
  struct Link {
    Replay* replay;
    std::size_t job;
    void operator()() const {
      if (replay->left[job]-- > 0) {
        replay->engine.schedule_after((*replay->chains)[job].step,
                                      Link{replay, job});
      }
    }
  };
  Replay replay;
  replay.chains = &chains;
  replay.left.resize(chains.size());
  for (std::size_t job = 0; job < chains.size(); ++job) {
    replay.left[job] = chains[job].steps;
    replay.engine.schedule_at(chains[job].arrival, Link{&replay, job},
                              sim::Lane::Arrival);
  }
  const Clock::time_point start = Clock::now();
  replay.engine.run();
  return ratio(seconds_since(start) * 1.0e9,
               static_cast<double>(replay.engine.executed()));
}

/// Submits every plan with submit_at() (the event order run() produces)
/// and steps sim::Engine::step() itself, classifying each step by the
/// federation counters it raised.
Report run_batch_traced(Workload workload, std::uint64_t seed, bool smoke) {
  Report report;
  SetupTimes times;
  std::vector<Cell> cells = build_cells(workload, seed, smoke, times);
  std::vector<Chain> chains;
  for (const drv::JobPlan& plan : cells.front().plans) {
    chains.push_back(Chain{plan.arrival, plan.model.step_seconds(plan.submit_nodes),
                           plan.model.iterations});
  }

  Digest digest;
  StepTrace trace;
  drv::WorkloadMetrics totals;
  std::uint64_t events = 0;
  for (Cell& cell : cells) {
    drv::DriverConfig config = cell.config;
    std::shared_ptr<TimedPlacement> placement;
    if (!config.federation.clusters.empty()) {
      placement = std::make_shared<TimedPlacement>(
          fed::make_placement(config.federation.placement));
      config.federation.policy = placement;
    }
    sim::Engine engine;
    drv::WorkloadDriver driver(engine, config);
    report.jobs += static_cast<long long>(cell.plans.size());
    for (drv::JobPlan& plan : cell.plans) driver.submit_at(std::move(plan));
    step_to_completion(engine, driver.federation(), placement.get(), trace);
    if (!driver.federation().all_done()) {
      report.fail("engine drained with live jobs");
    }
    const drv::WorkloadMetrics metrics = driver.collect_metrics();
    report.completed += driver.completed();
    events += engine.executed();
    digest_cell(workload, digest, driver, metrics);
    add_counters(totals, metrics);
    if (placement != nullptr) {
      trace.place += placement->elapsed();
      trace.place_calls += placement->calls();
    }
  }
  report.digest = digest.hex();

  const double stepped = to_seconds(trace.stepped);
  double attributed = to_seconds(trace.place);
  for (int c = 0; c < kStepClasses; ++c) {
    const double self = to_seconds(trace.self[c]);
    attributed += self;
    report.set(kClassNames[c][0], static_cast<double>(trace.steps[c]));
    report.set(kClassNames[c][1],
               ratio(self * 1.0e9, static_cast<double>(trace.steps[c])));
    report.set(kClassNames[c][2], ratio(self, stepped));
  }
  const double place = to_seconds(trace.place);
  report.set("fed.place_calls", static_cast<double>(trace.place_calls));
  report.set("fed.place_ns",
             ratio(place * 1.0e9, static_cast<double>(trace.place_calls)));
  report.set("fed.place_share", ratio(place, stepped));
  report.set("trace.stepped_s", stepped);
  report.set("trace.unattributed_share", ratio(stepped - attributed, stepped));
  report_counters(report, totals);
  report.set("sim.events", static_cast<double>(events));
  report.set("sim.events_per_job",
             ratio(static_cast<double>(events), static_cast<double>(report.jobs)));
  report.set("sim.queue_peak", static_cast<double>(trace.queue_peak));
  report.set("sim.dispatch_ns", dispatch_ns(chains));
  return report;
}

// --- service --------------------------------------------------------------------

/// Capture, serialize, deserialize and restore a snapshot of `live`,
/// then fork "+64 nodes" from it; every step is timed on its own.
void snapshot_and_fork(const svc::Service& live, const ServiceSpec& spec,
                       const svc::ServiceConfig& config, Report& report,
                       Digest& digest) {
  Clock::time_point start = Clock::now();
  const svc::Snapshot captured = svc::snapshot(live);
  const double capture = seconds_since(start);
  start = Clock::now();
  const std::string wire = captured.serialize();
  const double serialize = seconds_since(start);
  start = Clock::now();
  const svc::Snapshot parsed = svc::Snapshot::deserialize(wire, config);
  const double deserialize = seconds_since(start);
  start = Clock::now();
  std::unique_ptr<svc::Service> restored = svc::restore(parsed);
  const double restore = seconds_since(start);
  if (restored->completed() != live.completed() ||
      restored->accepted() != live.accepted()) {
    report.fail("restored service completed " +
                std::to_string(restored->completed()) + " of " +
                std::to_string(restored->accepted()) + ", live " +
                std::to_string(live.completed()) + " of " +
                std::to_string(live.accepted()));
  }
  restored.reset();

  svc::WhatIf whatif;
  whatif.label = "+64 nodes";
  whatif.add_nodes = spec.fork_nodes;
  start = Clock::now();
  const svc::ForkReport fork =
      svc::fork_and_run(parsed, whatif, parsed.time + spec.fork_seconds);
  const double fork_s = seconds_since(start);

  digest.line("snapshot time=%.17g submissions=%zu completed=%d\n",
              parsed.time, parsed.submissions.size(), live.completed());
  digest.line("fork completed=%lld/%lld wait_p99=%.17g/%.17g\n",
              fork.baseline.last_sample.completed_total,
              fork.variant.last_sample.completed_total,
              fork.baseline.last_sample.wait_p99,
              fork.variant.last_sample.wait_p99);
  report.set("svc.capture_s", capture);
  report.set("svc.serialize_s", serialize);
  report.set("svc.deserialize_s", deserialize);
  report.set("svc.restore_s", restore);
  report.set("svc.snapshot_s", capture + serialize + deserialize + restore);
  report.set("svc.snapshot_bytes", static_cast<double>(wire.size()));
  report.set("svc.fork_s", fork_s);
  report.set("svc.fork_branch_s",
             (fork.baseline.wall_seconds + fork.variant.wall_seconds) / 2.0);
}

/// An open loop in simulated time, a closed loop in wall time: push each
/// sample period's arrivals into the ring, then advance_to() the period
/// boundary.  The measured section is the stream, one slice per period;
/// the snapshot and the fork are timed on their own.
Report run_service(Mode mode, std::uint64_t seed, bool smoke) {
  const bool traced = mode == Mode::kTraced;
  const ServiceSpec spec = service_spec(smoke);
  Report report;
  SetupTimes times;
  Clock::time_point start = Clock::now();
  const std::vector<svc::JobRequest> requests = service_requests(spec, seed);
  times.generate = seconds_since(start);

  start = Clock::now();
  const svc::ServiceConfig config =
      service_config(spec, /*attribute_waits=*/mode != Mode::kAttrOff);
  // The traced run counts engine events through an attached profiler;
  // snapshots and forks replay from `config`, which has none.
  obs::Profiler profiler;
  svc::ServiceConfig live_config = config;
  if (traced) live_config.driver.hooks.profiler = &profiler;
  const auto service = std::make_unique<svc::Service>(live_config);
  times.plan = seconds_since(start);
  report.jobs = static_cast<long long>(requests.size());

  Digest digest;
  std::vector<double> periods;
  Clock::duration pushing{}, advancing{}, attr_probe{}, average_probe{};
  long long probes = 0;
  long long backpressure = 0;
  double side_sections = 0.0;
  bool snapped = false;
  std::size_t next = 0;
  double boundary = 0.0;
  const double horizon =
      requests.empty() ? 0.0 : requests.back().arrival + 1.0e7;
  const Clock::time_point stream_start = Clock::now();
  while ((next < requests.size() || !service->all_done()) &&
         boundary < horizon) {
    boundary += spec.sample_period;
    const Clock::time_point push_start = Clock::now();
    while (next < requests.size() && requests[next].arrival < boundary) {
      if (service->queue().push(requests[next]) == svc::PushResult::QueueFull) {
        // Explicit backpressure: pump the ring at the current instant,
        // then retry the same request.
        ++backpressure;
        service->advance_to(service->now());
        continue;
      }
      ++next;
    }
    const Clock::time_point advance_start = Clock::now();
    service->advance_to(boundary);
    const Clock::time_point advance_end = Clock::now();
    pushing += advance_start - push_start;
    advancing += advance_end - advance_start;
    periods.push_back(to_seconds(advance_end - advance_start));
    report.measured.push_back(to_seconds(advance_end - push_start));

    if (traced) {
      // The two public calls take_sample() makes at every boundary.
      const Clock::time_point probe_start = Clock::now();
      if (service->attribution() != nullptr) {
        service->attribution()->cause_totals(boundary);
      }
      const Clock::time_point attr_end = Clock::now();
      const double window_start =
          std::max(boundary - config.window, requests.front().arrival);
      if (service->driver().trace().has("allocated")) {
        service->driver().trace().average("allocated", window_start, boundary);
      }
      average_probe += Clock::now() - attr_end;
      attr_probe += attr_end - probe_start;
      ++probes;
    }
    if (!snapped && next >= static_cast<std::size_t>(spec.snapshot_at)) {
      snapped = true;
      const Clock::time_point section = Clock::now();
      snapshot_and_fork(*service, spec, config, report, digest);
      side_sections += seconds_since(section);
    }
  }
  const double stream = seconds_since(stream_start) - side_sections;
  if (!snapped) report.fail("stream ended before the snapshot point");
  if (!service->all_done()) report.fail("stream did not drain");

  report.completed = service->completed();
  const drv::WorkloadMetrics metrics = service->metrics();
  digest_cell(Workload::kService, digest, service->driver(), metrics);
  report.digest = digest.hex();

  report.add_setup(times);
  report.set("drv.plan_s", times.plan);
  report.set("svc.period_p50_ms", quantile(periods, 0.50) * 1.0e3);
  report.set("svc.period_p95_ms", quantile(periods, 0.95) * 1.0e3);
  const std::size_t tenth = std::max<std::size_t>(1, periods.size() / 10);
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < tenth && i < periods.size(); ++i) {
    first += periods[i];
    last += periods[periods.size() - 1 - i];
  }
  report.set("svc.period_growth", ratio(last, first));
  report.set("svc.backpressure", static_cast<double>(backpressure));
  if (traced) {
    const double probed = to_seconds(attr_probe) + to_seconds(average_probe);
    report.set("trace.stepped_s", stream);
    report.set("trace.unattributed_share",
               ratio(stream - to_seconds(pushing) - to_seconds(advancing) - probed,
                     stream));
    report.set("obs.attr_totals_us",
               ratio(to_seconds(attr_probe) * 1.0e6, static_cast<double>(probes)));
    report.set("sim.trace_average_us",
               ratio(to_seconds(average_probe) * 1.0e6,
                     static_cast<double>(probes)));
    report.set("sim.events", static_cast<double>(profiler.events()));
    report.set("sim.events_per_job",
               ratio(static_cast<double>(profiler.events()),
                     static_cast<double>(report.jobs)));
    report_counters(report, metrics);
  }
  return report;
}

bool valid_mode(Workload workload, Mode mode) {
  if (mode == Mode::kTimed || mode == Mode::kTraced) return true;
  if (workload == Workload::kService) return mode == Mode::kAttrOff;
  return mode != Mode::kAttrOff;
}

}  // namespace

const char* mode_name(Mode mode) {
  for (const auto& [candidate, name] : kModeNames) {
    if (candidate == mode) return name;
  }
  return "?";
}

bool mode_from_name(const std::string& name, Mode& out) {
  for (const auto& [mode, candidate] : kModeNames) {
    if (name == candidate) {
      out = mode;
      return true;
    }
  }
  return false;
}

int run_child(Workload workload, Mode mode, std::uint64_t seed, bool smoke) {
  if (!valid_mode(workload, mode)) {
    std::fprintf(stderr, "dmrbench: mode %s does not apply to workload %s\n",
                 mode_name(mode), workload_name(workload));
    return 2;
  }
  try {
    const Report report =
        workload == Workload::kService ? run_service(mode, seed, smoke)
        : mode == Mode::kTraced        ? run_batch_traced(workload, seed, smoke)
                                       : run_batch(workload, mode, seed, smoke);
    report.print();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dmrbench: %s %s seed %llu: %s\n",
                 workload_name(workload), mode_name(mode),
                 static_cast<unsigned long long>(seed), error.what());
    return 1;
  }
}

}  // namespace dmrbench

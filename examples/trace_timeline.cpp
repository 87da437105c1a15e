// Recording a Perfetto-loadable timeline — the walkthrough.
//
// Builds the paper's Fig. 5 setup (a 25-job Flexible Sleep workload on
// a 20-node cluster), attaches an obs::TraceRecorder and obs::Profiler
// through drv::DriverConfig::hooks, runs the simulation, and writes a
// Chrome trace-event JSON file:
//
//   ./trace_timeline [out.json]        (default: trace_timeline.json)
//
// Load the file in https://ui.perfetto.dev or chrome://tracing: each
// member cluster is a process track with job lifecycle spans (submit ->
// start -> end, expand/shrink instants, drain phases), schedule and
// negotiate/apply phases, and counter tracks (allocated nodes, running
// jobs, queue depth, reconfigs).  The horizontal axis is *simulated*
// time — the timeline is the paper's virtual-time evolution chart.
#include <cstdio>
#include <string>

#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

int main(int argc, char** argv) {
  using namespace dmr;
  const std::string out = argc > 1 ? argv[1] : "trace_timeline.json";

  // 1. The Fig. 5 workload: 25 FS jobs from the Feitelson model (sizes
  //    up to the 20-node cluster, 60 s steps, 10 s mean interarrival).
  wl::FeitelsonParams params;
  params.jobs = 25;
  params.max_size = 20;
  params.mean_interarrival = 10.0;
  params.max_runtime = 60.0 * 25;
  params.seed = 2017;
  const auto workload = wl::generate_feitelson(params);

  // 2. Attach observability: a trace recorder and a profiler, threaded
  //    through the driver config into every instrumented layer.  Both
  //    are plain stack objects; detaching them (default hooks) restores
  //    the zero-cost path.
  obs::TraceRecorder trace;
  obs::Profiler profiler;
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 20;
  config.hooks.trace = &trace;
  config.hooks.profiler = &profiler;
  drv::WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(25, job.size, job.runtime / 25, 20,
                                std::size_t(1) << 30);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    driver.submit_at(std::move(plan));
  }

  const double start = util::wall_seconds();
  const drv::WorkloadMetrics metrics = driver.run();
  const double wall = util::wall_seconds() - start;
  std::printf("ran %d jobs: makespan %.0f s, utilization %.1f%%, "
              "%lld expands, %lld shrinks\n",
              metrics.jobs, metrics.makespan, metrics.utilization * 100.0,
              metrics.expands, metrics.shrinks);

  // 3. Write and self-check the timeline (the strict validator is the
  //    same one the trace_smoke ctest runs).
  trace.write_file(out);
  const obs::TraceValidation validation = obs::validate_trace_file(out);
  std::printf("%s: %s\n", out.c_str(), validation.describe().c_str());
  if (!validation.ok) {
    for (const auto& error : validation.errors) {
      std::printf("  error: %s\n", error.c_str());
    }
    return 1;
  }
  std::printf("load it in https://ui.perfetto.dev or chrome://tracing\n");

  // 4. The profiler's event count and the peak RSS, next to the run's
  //    counters.
  std::printf("\nprofile: %llu engine events in %.3f s, peak RSS %ld KiB\n",
              static_cast<unsigned long long>(profiler.events()), wall,
              obs::Profiler::peak_rss_kb());
  std::printf("counters: %lld checks, %lld schedule requests, %lld passes "
              "(%lld saved), %zu bytes redistributed\n",
              metrics.checks, metrics.schedule_requests,
              metrics.schedule_passes, metrics.schedule_passes_saved,
              metrics.bytes_redistributed);
  return 0;
}

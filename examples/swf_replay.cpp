// Replaying a Standard Workload Format (SWF) trace — the walkthrough.
//
// Workflow: parse an archival log (Parallel Workloads Archive format),
// shape it onto the simulated cluster (filter records that never ran,
// rescale processors to nodes, annotate the rigid records with
// malleability bounds), convert to JobPlans and drive the same
// WorkloadDriver the synthetic benchmarks use.  Run it with a real log:
//
//   ./swf_replay KTH-SP2-1996-2.1-cln.swf
//
// Without an argument it replays a small embedded trace so the example
// is self-contained.  `--nodes N` rescales onto an N-node cluster
// (default 16; archive-scale make_swf traces need a machine their
// widest job fits on).  With `--trace FILE.json` the flexible replay is
// recorded as a Perfetto-loadable timeline (see examples/trace_timeline
// for the walkthrough of that output).  With `--audit` both replays run
// with the chk::Auditor attached; its JSON report is printed and any
// invariant violation makes the exit status nonzero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

// A miniature SWF log: header directives, a comment, and six jobs on a
// made-up 8-node machine (one failed record the shaper must drop).
constexpr const char* kEmbeddedTrace = R"(; Computer: Embedded demo machine
; MaxNodes: 8
; MaxProcs: 8
; UnixStartTime: 915148800
1 0   5 300 4 -1 -1 4 600 -1 1 1 1 1 1 1 -1 0
2 40 10 900 8 -1 -1 8 900 -1 1 2 1 2 1 1 -1 0
3 90  0 450 2 -1 -1 2 600 -1 1 1 1 1 1 1 -1 0
4 150 0   0 4 -1 -1 4 300 -1 0 3 1 3 1 1 -1 0
5 200 30 600 6 -1 -1 6 900 -1 1 2 1 2 1 1 -1 0
6 260  5 150 1 -1 -1 1 300 -1 1 4 2 4 1 1 -1 0
)";

drv::WorkloadMetrics replay(const wl::Workload& workload, bool flexible,
                            const obs::Hooks& hooks = {}) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = workload.target_nodes;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  drv::PlanShape shape;
  shape.steps = 10;
  shape.flexible = flexible;
  for (auto& plan : drv::plans_from_workload(workload, shape)) {
    driver.submit_at(std::move(plan));
  }
  return driver.run();
}

void report(const char* label, const drv::WorkloadMetrics& metrics) {
  std::printf("  %-14s makespan %7.0f s | util %5.1f%% | wait %6.0f s | "
              "completion %6.0f s | %lld shrinks, %lld expands\n",
              label, metrics.makespan, metrics.utilization * 100.0,
              metrics.wait.mean, metrics.completion.mean, metrics.shrinks,
              metrics.expands);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  std::string swf_file;
  bool audit = false;
  int nodes = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_file = argv[i + 1];
      ++i;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = util::parse_count(argv[++i], "--nodes");
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      audit = true;
    } else {
      swf_file = argv[i];
    }
  }

  // 1. Parse: directives + 18-field records, tolerant of comments and
  //    blank lines, loud about malformed lines.
  wl::SwfTrace trace;
  try {
    trace = swf_file.empty() ? wl::parse_swf_text(kEmbeddedTrace)
                             : wl::parse_swf_file(swf_file);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "swf_replay: %s\n", error.what());
    return 2;
  }
  std::printf("parsed %zu jobs from a %d-node / %d-processor machine\n",
              trace.jobs.size(), trace.header.max_nodes,
              trace.header.max_procs);
  for (const auto& [key, value] : trace.header.directives) {
    std::printf("  ; %s: %s\n", key.c_str(), value.c_str());
  }

  // 2. Shape: filter + rescale onto the simulated cluster (16 nodes
  //    unless --nodes overrides — large make_swf traces need a machine
  //    their widest job fits on), and annotate the rigid records with
  //    malleability bounds.
  wl::TraceShaper shaper;
  shaper.target_nodes = nodes;
  shaper.malleability.policy = wl::Malleability::Pow2Halving;
  wl::ShapeReport shape_report;
  const wl::Workload workload = shaper.shape(trace, &shape_report);
  std::printf("\nshaped onto %d nodes: %s\n", workload.target_nodes,
              shape_report.describe().c_str());
  if (workload.jobs.empty()) {
    std::printf("nothing to replay: the shaper dropped every record\n");
    return 0;
  }
  for (const wl::Malleability policy :
       {wl::Malleability::Rigid, wl::Malleability::Pow2Halving,
        wl::Malleability::FractionOfRequest}) {
    wl::TraceShaper variant = shaper;
    variant.malleability.policy = policy;
    const wl::Workload shaped = variant.shape(trace);
    const wl::WorkloadJob& first = shaped.jobs.front();
    std::printf("  %-19s job %lld: %d nodes, bounds [%d, %d]\n",
                wl::to_string(policy), first.source_id, first.nodes,
                first.min_nodes, first.max_nodes);
  }

  // 3. Replay: the same workload fixed vs flexible through the driver.
  //    With --trace, the flexible replay records its timeline.
  std::printf("\nreplay on %d nodes, 10 reconfiguring points per job:\n",
              workload.target_nodes);
  // Each replay is an independent engine (fresh clock, fresh job ids),
  // so each gets a fresh auditor.
  chk::Auditor fixed_auditor;
  chk::Auditor flexible_auditor;
  obs::Hooks fixed_hooks;
  if (audit) fixed_hooks.auditor = &fixed_auditor;
  const auto fixed = replay(workload, /*flexible=*/false, fixed_hooks);
  obs::TraceRecorder recorder;
  obs::Hooks hooks;
  if (!trace_file.empty()) hooks.trace = &recorder;
  if (audit) hooks.auditor = &flexible_auditor;
  const auto flexible = replay(workload, /*flexible=*/true, hooks);
  report("fixed", fixed);
  report("flexible", flexible);
  if (!trace_file.empty()) {
    recorder.write_file(trace_file);
    std::printf("\nwrote the flexible replay's timeline to %s "
                "(%zu events): %s\n",
                trace_file.c_str(), recorder.recorded(),
                obs::validate_trace_file(trace_file).describe().c_str());
  }
  if (flexible.completion.mean > 0.0 && fixed.completion.mean > 0.0) {
    std::printf("\nflexible completion gain: %.1f%%\n",
                drv::gain_percent(fixed.completion.mean,
                                  flexible.completion.mean));
  }
  if (audit) {
    const chk::Report fixed_report = fixed_auditor.report();
    const chk::Report flexible_report = flexible_auditor.report();
    std::printf("\naudit (fixed):    %s\n", fixed_report.json().c_str());
    std::printf("audit (flexible): %s\n", flexible_report.json().c_str());
    if (!fixed_report.ok() || !flexible_report.ok()) {
      std::fprintf(stderr, "swf_replay: invariant violations:\n%s%s",
                   fixed_report.describe().c_str(),
                   flexible_report.describe().c_str());
      return 1;
    }
  }
  return 0;
}

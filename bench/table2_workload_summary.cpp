// Table II — summary of measures from all the realistic workloads:
// average resource-utilization rate, job waiting time, job execution
// time and job completion time, fixed vs flexible, for 50..400 jobs.
//
// Paper shape: utilization drops ~98% -> ~70% (flexible releases nodes),
// waits drop by ~60-70%, per-job execution time *rises* (jobs run shrunk
// at their sweet spot), completion time is cut roughly in half.
//
// `--swf FILE` replays an archival SWF trace instead of the synthetic
// CG/Jacobi/N-body mix: the same 50..400-job prefixes, fixed vs
// flexible (pow2-halving malleability annotation), on the same 64-node
// cluster — with the shaper's dropped/clamped counts printed so a
// filtered replay is never presented as the full log.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;
using util::TableWriter;

int run_swf_summary(const std::string& path, double scale) {
  wl::SwfTrace trace;
  try {
    trace = wl::parse_swf_file(path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "table2_workload_summary: %s\n", error.what());
    return 2;
  }
  bench::print_header("Table II (SWF replay)",
                      "Summary of measures from " + path);

  TableWriter table({"Jobs", "Config", "Utilization", "Avg wait (s)",
                     "Avg exec (s)", "Avg completion (s)"});
  wl::ShapeReport report;
  int previous_kept = -1;
  for (int jobs : {50, 100, 200, 400}) {
    wl::TraceShaper shaper;
    shaper.target_nodes = 64;
    shaper.max_jobs = jobs;
    shaper.malleability.policy = wl::Malleability::Pow2Halving;
    const wl::Workload workload = shaper.shape(trace, &report);
    if (report.kept == previous_kept) break;  // archive exhausted
    previous_kept = report.kept;
    for (const bool flexible : {false, true}) {
      sim::Engine engine;
      drv::DriverConfig config;
      config.rms.nodes = 64;
      drv::WorkloadDriver driver(engine, config);
      drv::PlanShape plan_shape;
      plan_shape.steps = std::max(1, static_cast<int>(25 * scale));
      plan_shape.flexible = flexible;
      for (auto& plan : drv::plans_from_workload(workload, plan_shape)) {
        driver.submit_at(std::move(plan));
      }
      const auto metrics = driver.run();
      table.add_row({TableWriter::cell(static_cast<long long>(report.kept)),
                     flexible ? "flexible" : "fixed",
                     TableWriter::percent(metrics.utilization, 2),
                     TableWriter::cell(metrics.wait.mean, 2),
                     TableWriter::cell(metrics.execution.mean, 2),
                     TableWriter::cell(metrics.completion.mean, 2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(shaping onto 64 nodes: %s)\n", report.describe().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::string swf;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      scale = 0.1;
    } else if (std::string(argv[i]) == "--swf") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "table2_workload_summary: --swf needs a trace file\n");
        return 2;
      }
      swf = argv[++i];
    }
  }
  if (!swf.empty()) return run_swf_summary(swf, scale);

  bench::print_header("Table II",
                      "Summary of measures from all the workloads");

  TableWriter table({"Jobs", "Config", "Utilization", "Avg wait (s)",
                     "Avg exec (s)", "Avg completion (s)"});
  for (int jobs : {50, 100, 200, 400}) {
    for (const bool flexible : {false, true}) {
      bench::RealisticWorkloadOptions options;
      options.jobs = jobs;
      options.mean_arrival = 30.0;
      options.iteration_scale = scale;
      options.flexible = flexible;
      const auto metrics = bench::run_realistic_workload(options);
      table.add_row({TableWriter::cell(static_cast<long long>(jobs)),
                     flexible ? "flexible" : "fixed",
                     TableWriter::percent(metrics.utilization, 2),
                     TableWriter::cell(metrics.wait.mean, 2),
                     TableWriter::cell(metrics.execution.mean, 2),
                     TableWriter::cell(metrics.completion.mean, 2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "(paper, 50..400 jobs)\n"
      "  utilization : fixed 98.71/97.39/98.38/98.98%%  flexible "
      "68.67/71.91/73.54/73.92%%\n"
      "  avg wait    : fixed 4115/9750/17466/31788 s    flexible "
      "1360/2991/6857/13861 s\n"
      "  avg exec    : fixed 620/587/521/532 s          flexible "
      "900/858/826/843 s\n"
      "  completion  : fixed 4735/10337/17987/32321 s   flexible "
      "2260/3849/7677/14704 s\n");
  return 0;
}

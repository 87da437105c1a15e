// Fig. 10 — execution time of realistic workloads (CG / Jacobi / N-body,
// 33% each) of 50..400 jobs, fixed vs flexible, on a 64-node cluster.
//
// Paper gains: 46.48% (50), 49.04% (100), 41.42% (200), 41.97% (400) —
// flexible cuts the total workload time by >40%.
//
// --attr-json FILE records the wait-attribution sidecar for the first
// flexible run (50 jobs) so `dmr_explain --job ID` can name the concrete
// blocking cause behind any wait in the replay.
#include <cstdio>
#include <exception>

#include "common.hpp"
#include "dmr/util.hpp"

int main(int argc, char** argv) {
  using namespace dmr;
  using util::TableWriter;

  // --quick runs scaled-down iteration counts (CI-friendly).
  double scale = 1.0;
  std::string attr_json;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") scale = 0.1;
    if (std::string(argv[i]) == "--attr-json" && i + 1 < argc) {
      attr_json = argv[++i];
    }
  }

  bench::print_header("Fig. 10",
                      "Realistic workloads: fixed vs flexible makespan");

  TableWriter table({"Jobs", "Fixed (s)", "Flexible (s)", "Gain",
                     "Shrinks", "Expands"});
  obs::WaitAttributor attributor;
  bool attributed = false;
  for (int jobs : {50, 100, 200, 400}) {
    bench::RealisticWorkloadOptions options;
    options.jobs = jobs;
    options.mean_arrival = 30.0;
    options.iteration_scale = scale;
    options.flexible = false;
    const auto fixed = bench::run_realistic_workload(options);
    options.flexible = true;
    if (!attr_json.empty() && !attributed) {
      options.hooks.attr = &attributor;
      attributed = true;
    }
    const auto flexible = bench::run_realistic_workload(options);
    options.hooks.attr = nullptr;
    // Incremental-scheduler telemetry in bench-JSON form: passes that
    // actually ran vs. the passes the former run-on-every-mutation
    // design would have executed (passes + saved).
    std::printf(
        "{\"bench\":\"fig10\",\"jobs\":%d,\"policy\":\"flexible\","
        "\"schedule_requests\":%lld,\"schedule_passes\":%lld,"
        "\"schedule_passes_saved\":%lld,\"pass_reduction\":%.3f}\n",
        jobs, flexible.schedule_requests, flexible.schedule_passes,
        flexible.schedule_passes_saved,
        flexible.schedule_passes + flexible.schedule_passes_saved > 0
            ? static_cast<double>(flexible.schedule_passes_saved) /
                  static_cast<double>(flexible.schedule_passes +
                                      flexible.schedule_passes_saved)
            : 0.0);
    table.add_row({TableWriter::cell(static_cast<long long>(jobs)),
                   TableWriter::cell(fixed.makespan, 0),
                   TableWriter::cell(flexible.makespan, 0),
                   TableWriter::cell(
                       drv::gain_percent(fixed.makespan, flexible.makespan),
                       2) + "%",
                   TableWriter::cell(flexible.shrinks),
                   TableWriter::cell(flexible.expands)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(paper: gains 46.48%% / 49.04%% / 41.42%% / 41.97%% — the "
              "flexible workload completes in well under 60%% of the fixed "
              "time)\n");
  if (attributed) {
    try {
      attributor.write_file(attr_json);
      std::fprintf(stderr,
                   "fig10: attribution (flexible, 50 jobs) -> %s: %zu jobs\n",
                   attr_json.c_str(), attributor.profile().jobs.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fig10: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}

// engine_bench — self-profiling benchmark of the simulator engine on the
// Section IX realistic workload (the fig10 mix: CG / Jacobi / N-body).
//
// Three runs of the identical workload answer three questions:
//  1. baseline  (hooks detached)  — the production-path wall time;
//  2. rerun     (hooks detached)  — the measurement noise floor, and a
//     determinism check: its outcome digest must match run 1 byte for
//     byte.  The detached path *is* the "tracing disabled" cost (one
//     interest-mask test per emit site), so the run-to-run spread
//     bounds the disabled overhead we can resolve;
//  3. profiled  (TraceRecorder + Profiler attached) — the instrumented
//     wall time and the ProfileReport row.  Its digest must also match
//     run 1: observability must never perturb the simulation.
//
// The profiled row (events/sec, time per schedule pass, placement vs
// engine split, peak RSS) plus provenance (git sha / timestamp / threads) is
// what --append-json accumulates into BENCH_engine.json — the perf
// trajectory every later optimization PR plots its speedup against.
//
// Usage:  engine_bench [archive] [jobs=N] [scale=F] [seed=N] [repeat=N]
//                      [--trace FILE] [--append-json FILE] [smoke]
//   archive    replay a seeded Feitelson SWF trace (100k rigid jobs on
//              1024 nodes by default — the make_swf | swf_replay path,
//              in memory) instead of fig10: the event-engine stress
//              workload, >1M calendar-queue events per run.  The
//              profiled run attaches the Profiler only — recording a
//              million-event timeline would dominate peak RSS.
//   smoke      CI mode: a small scaled-down workload.  It asserts only
//              the digest equalities below; wall-clock spreads are
//              reported (noise_floor_pct), never gated, because they
//              depend on machine load rather than on the code
//   jobs=N     jobs in the workload (default 50, the paper's Section IX;
//              archive default 100000)
//   scale=F    iteration_scale: fraction of Table I iteration counts
//              (default 1.0; smoke forces a small value; fig10 only)
//   seed=N     workload seed (default 2017; archive default 1)
//   repeat=N   measured repetitions appended as separate rows (default 2,
//              so one invocation seeds BENCH_engine.json with a
//              trajectory)
//   --trace FILE      write the profiled run's timeline to FILE and
//                     self-check it with the strict validator
//   --append-json FILE  append one JSON row per repetition to FILE
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "dmr/observe.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

struct EngineBenchOptions {
  int jobs = -1;  // -1 = the workload's default (50 fig10, 100000 archive)
  double scale = 1.0;
  std::uint64_t seed = 0;  // 0 = the workload's default (2017 / 1)
  int repeat = 2;
  bool smoke = false;
  bool archive = false;
  std::string trace_file;
  std::string append_json;
  /// The shared archive workload (built once; replays are the measured
  /// section).  Unused in fig10 mode.
  wl::Workload archive_workload;
};

struct RunResult {
  double wall = 0.0;
  std::string digest;
  drv::WorkloadMetrics metrics;
};

bench::ArchiveWorkloadOptions archive_options(
    const EngineBenchOptions& options) {
  bench::ArchiveWorkloadOptions archive;
  if (options.jobs > 0) archive.jobs = options.jobs;
  if (options.seed != 0) archive.seed = options.seed;
  return archive;
}

RunResult run_once(const EngineBenchOptions& options, const obs::Hooks& hooks) {
  RunResult result;
  if (options.archive) {
    bench::ArchiveWorkloadOptions archive = archive_options(options);
    archive.hooks = hooks;
    // The measured wall is the driver run alone: plan building and digest
    // rendering are per-rep setup, and at 100k jobs they would dilute the
    // events/sec row by a constant unrelated to engine speed.
    result.digest =
        bench::archive_outcome_digest(options.archive_workload, archive,
                                      &result.metrics, &result.wall);
    return result;
  }
  bench::RealisticWorkloadOptions workload;
  workload.jobs = options.jobs > 0 ? options.jobs : 50;
  workload.seed = options.seed != 0 ? options.seed : 2017;
  workload.iteration_scale = options.scale;
  workload.hooks = hooks;
  const double start = util::wall_seconds();
  result.digest = bench::realistic_outcome_digest(workload, &result.metrics);
  result.wall = util::wall_seconds() - start;
  return result;
}

/// Best-of-`tries` timing for *detached* runs: identical runs, minimum
/// wall time.  Smoke runs are milliseconds, where a single sample is
/// dominated by jitter; the minimum is the stable estimator.  (The
/// profiled run stays single-shot — re-running into the same recorder
/// would restart its timeline and inflate the profiler's event counts.)
RunResult run_best(const EngineBenchOptions& options, int tries) {
  RunResult best = run_once(options, obs::Hooks{});
  for (int t = 1; t < tries; ++t) {
    RunResult next = run_once(options, obs::Hooks{});
    if (next.wall < best.wall) best.wall = next.wall;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  EngineBenchOptions options;
  for (int i = 1; i < argc; ++i) {
    unsigned long long value = 0;
    double fraction = 0.0;
    if (std::strcmp(argv[i], "smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(argv[i], "archive") == 0) {
      options.archive = true;
    } else if (std::sscanf(argv[i], "jobs=%llu", &value) == 1) {
      options.jobs = static_cast<int>(value);
    } else if (std::sscanf(argv[i], "seed=%llu", &value) == 1) {
      options.seed = value;
    } else if (std::sscanf(argv[i], "repeat=%llu", &value) == 1) {
      options.repeat = static_cast<int>(value);
    } else if (std::sscanf(argv[i], "scale=%lf", &fraction) == 1) {
      options.scale = fraction;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      options.trace_file = argv[i + 1];
      ++i;
    } else if (std::strcmp(argv[i], "--append-json") == 0 && i + 1 < argc) {
      options.append_json = argv[i + 1];
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [archive] [jobs=N] [scale=F] [seed=N] "
                   "[repeat=N] [--trace FILE] [--append-json FILE] [smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.smoke) {
    // Sized so the measured section stays in the tens-of-milliseconds
    // band, where the reported spread still means something.
    options.jobs = options.archive ? 5000 : 128;
    options.scale = 0.2;
    options.repeat = 1;
  }
  if ((options.jobs <= 0 && options.jobs != -1) || options.scale <= 0.0 ||
      options.repeat <= 0) {
    std::fprintf(stderr, "engine_bench: jobs/scale/repeat must be positive\n");
    return 2;
  }
  if (options.archive && !options.trace_file.empty()) {
    std::fprintf(stderr,
                 "engine_bench: --trace is not supported in archive mode "
                 "(the profiled run attaches no recorder)\n");
    return 2;
  }
  if (options.archive) {
    options.archive_workload =
        bench::build_archive_workload(archive_options(options));
  }
  const char* workload_name = options.archive ? "archive" : "fig10";

  std::FILE* append = nullptr;
  if (!options.append_json.empty()) {
    append = std::fopen(options.append_json.c_str(), "a");
    if (append == nullptr) {
      std::fprintf(stderr, "engine_bench: cannot append to %s\n",
                   options.append_json.c_str());
      return 1;
    }
  }

  // Warm-up (untimed): fault in the working set and prime the allocator
  // so the first timed run is not measuring cold-start costs.
  run_once(options, obs::Hooks{});

  const int tries = options.smoke ? 5 : 1;
  int status = 0;
  for (int rep = 0; rep < options.repeat; ++rep) {
    const RunResult baseline = run_best(options, tries);
    const RunResult rerun = run_best(options, tries);

    // Archive mode profiles without a recorder: a million-event timeline
    // in memory would dominate the peak-RSS figure the row reports.
    obs::TraceRecorder trace;
    obs::Profiler profiler;
    obs::Hooks hooks;
    if (!options.archive) hooks.trace = &trace;
    hooks.profiler = &profiler;
    const RunResult profiled = run_once(options, hooks);
    const obs::ProfileReport report =
        profiler.report(profiled.wall, profiled.metrics.jobs);

    // Hard invariants, every mode: a detached rerun and a fully
    // instrumented run must both reproduce the baseline outcomes
    // byte for byte.
    if (rerun.digest != baseline.digest) {
      std::fprintf(stderr,
                   "engine_bench: FAIL rep %d: detached rerun diverged from "
                   "baseline (non-deterministic simulation)\n",
                   rep);
      status = 1;
    }
    if (profiled.digest != baseline.digest) {
      std::fprintf(stderr,
                   "engine_bench: FAIL rep %d: traced/profiled run diverged "
                   "from baseline (observability perturbed the outcome)\n",
                   rep);
      status = 1;
    }

    const double noise_floor =
        std::min(baseline.wall, rerun.wall) > 0.0
            ? (std::max(baseline.wall, rerun.wall) /
                   std::min(baseline.wall, rerun.wall) -
               1.0) * 100.0
            : 0.0;
    const double traced_overhead =
        std::min(baseline.wall, rerun.wall) > 0.0
            ? (profiled.wall / std::min(baseline.wall, rerun.wall) - 1.0) *
                  100.0
            : 0.0;
    // The ProfileReport fields carry "jobs"/"wall_seconds"; this prefix
    // adds the workload parameters and the overhead measurements.
    const unsigned long long seed_out =
        options.seed != 0 ? options.seed : (options.archive ? 1 : 2017);
    std::printf(
        "{\"bench\":\"engine\",\"workload\":\"%s\",\"rep\":%d,"
        "\"iteration_scale\":%.4f,\"seed\":%llu,"
        "\"baseline_wall_seconds\":%.6f,\"rerun_wall_seconds\":%.6f,"
        "\"noise_floor_pct\":%.2f,\"traced_overhead_pct\":%.2f,"
        "\"trace_events\":%zu,\"trace_dropped\":%llu,%s,%s}\n",
        workload_name, rep, options.scale, seed_out, baseline.wall,
        rerun.wall, noise_floor, traced_overhead, trace.recorded(),
        static_cast<unsigned long long>(trace.dropped()),
        report.json_fields().c_str(),
        dmr::bench_provenance_fields(1).c_str());
    if (append != nullptr) {
      std::fprintf(append,
                   "{\"bench\":\"engine\",\"workload\":\"%s\","
                   "\"iteration_scale\":%.4f,\"seed\":%llu,"
                   "\"noise_floor_pct\":%.2f,\"traced_overhead_pct\":%.2f,"
                   "%s,%s}\n",
                   workload_name, options.scale, seed_out, noise_floor,
                   traced_overhead, report.json_fields().c_str(),
                   dmr::bench_provenance_fields(1).c_str());
    }

    if (rep == 0 && !options.trace_file.empty()) {
      trace.write_file(options.trace_file);
      const obs::TraceValidation validation =
          obs::validate_trace_file(options.trace_file);
      std::fprintf(stderr, "engine_bench: %s: %s\n",
                   options.trace_file.c_str(),
                   validation.describe().c_str());
      if (!validation.ok) {
        for (const std::string& error : validation.errors) {
          std::fprintf(stderr, "engine_bench:   error: %s\n", error.c_str());
        }
        status = 1;
      }
    }
  }
  if (append != nullptr) std::fclose(append);
  return status;
}

// make_swf — synthesize a Feitelson-model workload as an SWF trace.
//
// The archive-scale replay path (swf_replay, sweep --swf, the
// archive_smoke ctest) needs traces far larger than the checked-in
// samples.
// This tool writes one on demand: job sizes, runtimes, repeats and
// Poisson arrivals from wl::generate_feitelson, the inter-arrival mean
// balanced against the target machine so the queue stays loaded but
// bounded, serialized through wl::trace_from_feitelson + wl::write_swf.
// The output round-trips through wl::parse_swf_file and is fully
// determined by the flags (the seed in particular), so tests and
// benches can regenerate identical traces instead of versioning them.
//
//   make_swf --jobs 100000 --nodes 1024 --seed 1 -o archive.swf
//
// Exit status: 0 on success, 1 on I/O failure, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dmr/util.hpp"
#include "dmr/workload.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--jobs N] [--nodes N] [--max-size N] [--load F]\n"
      "       %*s [--max-runtime S] [--seed N] [-o FILE]\n"
      "\n"
      "  --jobs N         jobs to synthesize (default 100000)\n"
      "  --nodes N        machine size; becomes MaxNodes/MaxProcs and\n"
      "                   balances the arrival rate (default 1024)\n"
      "  --max-size N     largest job size in nodes (default 128)\n"
      "  --load F         offered load in (0, 1]; sets the mean\n"
      "                   inter-arrival time (default 0.7)\n"
      "  --max-runtime S  cap runtimes at S seconds (default 0 = uncapped)\n"
      "  --seed N         generator seed (default 1)\n"
      "  -o FILE          output path (default: stdout)\n",
      argv0, static_cast<int>(std::strlen(argv0)), "");
}

}  // namespace

int main(int argc, char** argv) {
  dmr::wl::FeitelsonParams params;
  params.jobs = 100000;
  params.max_size = 128;
  params.seed = 1;
  int nodes = 1024;
  double load = 0.7;
  std::string output;

  for (int i = 1; i < argc; i += 2) {
    const char* arg = argv[i];
    if (i + 1 >= argc) {
      print_usage(argv[0]);
      return 2;
    }
    const char* value = argv[i + 1];
    if (std::strcmp(arg, "--jobs") == 0) {
      params.jobs = dmr::util::parse_count(value, "--jobs");
    } else if (std::strcmp(arg, "--nodes") == 0) {
      nodes = dmr::util::parse_count(value, "--nodes");
    } else if (std::strcmp(arg, "--max-size") == 0) {
      params.max_size = dmr::util::parse_count(value, "--max-size");
    } else if (std::strcmp(arg, "--load") == 0) {
      load = dmr::util::parse_real(value, "--load", 0.0, 1.0);
    } else if (std::strcmp(arg, "--max-runtime") == 0) {
      params.max_runtime = dmr::util::parse_real(
          value, "--max-runtime", 0.0, std::numeric_limits<double>::max());
    } else if (std::strcmp(arg, "--seed") == 0) {
      params.seed = dmr::util::parse_u64(value, "--seed");
    } else if (std::strcmp(arg, "-o") == 0) {
      output = value;
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (load <= 0.0 || params.max_size > nodes) {
    std::fprintf(stderr, "%s: need 0 < load <= 1 and max-size in [1, nodes]\n",
                 argv[0]);
    return 2;
  }

  params.mean_interarrival =
      dmr::wl::feitelson_balanced_interarrival(params, nodes, load);
  const std::vector<dmr::wl::SyntheticJob> jobs =
      dmr::wl::generate_feitelson(params);
  const dmr::wl::SwfTrace trace = dmr::wl::trace_from_feitelson(jobs, nodes);

  if (output.empty()) {
    dmr::wl::write_swf(std::cout, trace);
    if (!std::cout) {
      std::fprintf(stderr, "%s: write to stdout failed\n", argv[0]);
      return 1;
    }
  } else {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "%s: cannot open %s\n", argv[0], output.c_str());
      return 1;
    }
    dmr::wl::write_swf(out, trace);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "%s: write to %s failed\n", argv[0],
                   output.c_str());
      return 1;
    }
  }

  const dmr::wl::WorkloadStats stats = dmr::wl::workload_stats(jobs);
  std::fprintf(stderr,
               "make_swf: %zu jobs on %d nodes (seed %llu, load %.2f, "
               "mean size %.1f, mean runtime %.0f s, mean interarrival "
               "%.2f s, span %.0f s)%s%s\n",
               jobs.size(), nodes,
               static_cast<unsigned long long>(params.seed), load,
               stats.mean_size, stats.mean_runtime, stats.mean_interarrival,
               jobs.empty() ? 0.0 : jobs.back().arrival,
               output.empty() ? "" : " -> ", output.c_str());
  return 0;
}

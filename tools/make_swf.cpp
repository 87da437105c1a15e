// make_swf — synthesize a Feitelson-model workload as an SWF trace.
//
// The archive-scale replay path (engine_bench `archive`, swf_replay,
// sweep --swf) needs traces far larger than the checked-in samples.
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
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

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

bool parse_int(const char* text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  // Out of int range is an error, never a silent wrap.
  if (end == text || *end != '\0' || value < INT_MIN || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool parse_double(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
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

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    int seed_int = 0;
    if (std::strcmp(arg, "--jobs") == 0 && value != nullptr &&
        parse_int(value, &params.jobs)) {
      ++i;
    } else if (std::strcmp(arg, "--nodes") == 0 && value != nullptr &&
               parse_int(value, &nodes)) {
      ++i;
    } else if (std::strcmp(arg, "--max-size") == 0 && value != nullptr &&
               parse_int(value, &params.max_size)) {
      ++i;
    } else if (std::strcmp(arg, "--load") == 0 && value != nullptr &&
               parse_double(value, &load)) {
      ++i;
    } else if (std::strcmp(arg, "--max-runtime") == 0 && value != nullptr &&
               parse_double(value, &params.max_runtime)) {
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0 && value != nullptr &&
               parse_int(value, &seed_int)) {
      params.seed = static_cast<std::uint64_t>(seed_int);
      ++i;
    } else if (std::strcmp(arg, "-o") == 0 && value != nullptr) {
      output = value;
      ++i;
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (params.jobs <= 0 || nodes <= 0 || params.max_size <= 0 || load <= 0.0 ||
      load > 1.0 || params.max_size > nodes) {
    std::fprintf(stderr,
                 "%s: need jobs > 0, nodes > 0, 0 < load <= 1 and "
                 "max-size in [1, nodes]\n",
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

// dmrbench — the benchmark of the DMR simulator.
//
// Usage:
//   dmrbench [--runs N] [--seed N] [--smoke]
//       The report: N (default 10) timed runs of each workload,
//       interleaved round-robin, then one traced round per workload.
//       Prints median, q1, q3 and n of every metric; exits 1 when any
//       outcome check fails.
//   dmrbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//       One run of one workload for about N seconds (default 10),
//       ending in one JSON line: the end-to-end metrics, or with
//       --trace 1 the per-layer metrics.
//   --smoke  the same code paths and checks at tiny sizes (well under
//            20 s for the report); checks the harness, not performance.
//
// Workloads: archive, fig10, federation, service (README.md says why
// each).  Every numeric flag is range-checked; a bad value exits 2.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "child.hpp"
#include "common.hpp"
#include "parent.hpp"

namespace {

using namespace dmrbench;

constexpr const char* kUsage =
    "usage: dmrbench [--runs N] [--seed N] [--smoke]\n"
    "       dmrbench --workload archive|fig10|federation|service [--seed N]\n"
    "                [--seconds N] [--trace 0|1] [--smoke]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "dmrbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Decimal digits only, within [low, high]: strtoull alone would accept
/// a sign or leading blanks and wrap "-1" to 2^64 - 1.
std::uint64_t parse_number(const char* flag, const char* text,
                           std::uint64_t low, std::uint64_t high) {
  const bool digits =
      *text != '\0' && std::strspn(text, "0123456789") == std::strlen(text);
  errno = 0;
  const unsigned long long value = digits ? std::strtoull(text, nullptr, 10) : 0;
  if (!digits || errno == ERANGE || value < low || value > high) {
    usage_error(std::string(flag) + ": '" + text + "' is not an integer in [" +
                std::to_string(low) + ", " + std::to_string(high) + "]");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::optional<Mode> child;
  std::optional<std::uint64_t> seed;
  std::optional<int> seconds;
  std::optional<int> trace;
  std::optional<int> runs;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("unknown flag or missing value: " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      Workload parsed;
      if (!workload_from_name(value, parsed)) {
        usage_error("--workload: unknown workload '" + std::string(value) + "'");
      }
      workload = parsed;
    } else if (flag == "--child") {
      Mode parsed;
      if (!mode_from_name(value, parsed)) {
        usage_error("--child: unknown mode '" + std::string(value) + "'");
      }
      child = parsed;
    } else if (flag == "--seed") {
      seed = parse_number("--seed", value, 0,
                          std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--seconds") {
      seconds = static_cast<int>(parse_number("--seconds", value, 1, 600));
    } else if (flag == "--trace") {
      trace = static_cast<int>(parse_number("--trace", value, 0, 1));
    } else if (flag == "--runs") {
      runs = static_cast<int>(parse_number("--runs", value, 1, 1000));
    } else {
      usage_error("unknown flag: " + flag);
    }
  }

  if (child) {
    if (!workload) usage_error("--child needs --workload");
    return run_child(*workload, *child, seed.value_or(default_seed(*workload)),
                     smoke);
  }
  if (workload) {
    if (runs) usage_error("--runs applies to the report, not to --workload");
    return run_once(*workload, seed.value_or(default_seed(*workload)),
                    seconds.value_or(10), trace.value_or(0) == 1, smoke);
  }
  if (seconds || trace) usage_error("--seconds and --trace need --workload");
  return run_report(seed, runs.value_or(smoke ? 2 : 10), smoke);
}

// The parent side of dmrbench: spawns one fresh child process per
// repetition (one at a time, each single-threaded), checks that every
// child produced the same outcome digest, and turns the children's
// reports into metrics.
#pragma once

#include <cstdint>
#include <optional>

#include "common.hpp"

namespace dmrbench {

/// One benchmark run: children of `workload` for about `seconds`, then
/// one JSON line on stdout with "correct", "attempted", "failed" and
/// "metrics" (every end-to-end metric, or with `trace` every per-layer
/// metric).  Returns 0 when every check passed and no job failed.
int run_once(Workload workload, std::uint64_t seed, int seconds, bool trace,
             bool smoke);

/// The full report: `runs` rounds of timed children interleaved
/// round-robin across the workloads, then one traced round per workload;
/// prints median, q1, q3 and n of every end-to-end metric and every
/// per-layer metric.  `seed` overrides each workload's default seed.
int run_report(std::optional<std::uint64_t> seed, int runs, bool smoke);

}  // namespace dmrbench

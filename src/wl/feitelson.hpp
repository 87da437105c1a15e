// Workload synthesis following Feitelson's statistical model (the same
// model the paper uses, Section VII-C):
//  - job sizes from a discrete distribution over [1, max_size] that
//    emphasizes small sizes and powers of two (weight 1/size, tripled
//    on powers of two);
//  - runtimes from a two-branch hyperexponential whose means correlate
//    with the job size (bigger jobs run longer);
//  - repeated runs: a job may be resubmitted up to four times
//    back-to-back (count with a heavy-tailed distribution);
//  - Poisson arrivals (exponential inter-arrival times).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dmr::wl {

struct FeitelsonParams {
  /// Number of jobs to synthesize (after repetition expansion).
  int jobs = 100;
  /// Largest job size in nodes.
  int max_size = 20;
  /// Mean inter-arrival time in seconds (Poisson process).
  double mean_interarrival = 10.0;
  /// Runtime scale: mean of the short hyperexponential branch (seconds).
  double short_runtime_mean = 30.0;
  /// Mean of the long branch for the largest size.
  double long_runtime_mean = 120.0;
  /// Cap runtimes at this value (0 = uncapped).  The FS study caps each
  /// step at 60 s.
  double max_runtime = 0.0;
  std::uint64_t seed = 1;
};

struct SyntheticJob {
  int index = 0;          // position in the workload
  double arrival = 0.0;   // absolute submission time
  int size = 1;           // requested nodes
  double runtime = 0.0;   // execution time at the requested size
  int repeat_of = -1;     // index of the first job of a repeat group
};

/// Size distribution weights over [1, max_size] (exposed for tests).
std::vector<double> feitelson_size_weights(int max_size);

/// Draw one runtime for a job of `size` nodes.
double feitelson_runtime(util::Rng& rng, int size,
                         const FeitelsonParams& params);

/// Generate the full workload (sorted by arrival time).
std::vector<SyntheticJob> generate_feitelson(const FeitelsonParams& params);

/// Mean inter-arrival time that offers `target_load` (0..1] of a
/// `nodes`-node cluster, from the model's expected node-seconds per job:
/// interarrival = E[size * runtime] / (nodes * target_load).  Runtime
/// clamps (1 s floor, max_runtime cap) are ignored, so the estimate is
/// slightly optimistic for heavily capped configurations.  Lets scenario
/// sweeps scale trace length and cluster size while keeping queues
/// comparably loaded.
double feitelson_balanced_interarrival(const FeitelsonParams& params,
                                       int nodes, double target_load);

/// Summary statistics used by distribution sanity tests.
struct WorkloadStats {
  double mean_size = 0.0;
  double mean_runtime = 0.0;
  double mean_interarrival = 0.0;
  double pow2_fraction = 0.0;
  int repeats = 0;
};
WorkloadStats workload_stats(const std::vector<SyntheticJob>& jobs);

}  // namespace dmr::wl

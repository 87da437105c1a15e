#include "wl/feitelson.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmr::wl {

namespace {

/// Probability weight boost for power-of-two sizes.
constexpr double kPow2Boost = 3.0;
/// Maximum repetition count for the repeated-runs component.
constexpr int kMaxRepeats = 4;

bool is_power_of_two(int value) {
  return value > 0 && (value & (value - 1)) == 0;
}
}  // namespace

std::vector<double> feitelson_size_weights(int max_size) {
  if (max_size < 1) {
    throw std::invalid_argument("feitelson_size_weights: max_size < 1");
  }
  // Harmonic decay with a multiplicative boost on powers of two: small
  // jobs dominate, 2^k sizes spike — the qualitative shape of Feitelson's
  // observed distributions.
  std::vector<double> weights(static_cast<std::size_t>(max_size));
  for (int size = 1; size <= max_size; ++size) {
    double w = 1.0 / static_cast<double>(size);
    if (is_power_of_two(size)) w *= kPow2Boost;
    weights[static_cast<std::size_t>(size - 1)] = w;
  }
  return weights;
}

double feitelson_runtime(util::Rng& rng, int size,
                         const FeitelsonParams& params) {
  // Two-branch hyperexponential; the long-branch probability and mean
  // grow with the job size (runtime correlates with parallelism).
  const double size_fraction =
      static_cast<double>(size) / static_cast<double>(params.max_size);
  const double p_short = std::clamp(0.85 - 0.35 * size_fraction, 0.3, 0.95);
  const double long_mean =
      params.long_runtime_mean * (0.5 + 0.5 * size_fraction + size_fraction);
  double runtime = rng.hyperexponential(p_short, params.short_runtime_mean,
                                        long_mean);
  runtime = std::max(runtime, 1.0);
  if (params.max_runtime > 0.0) runtime = std::min(runtime, params.max_runtime);
  return runtime;
}

std::vector<SyntheticJob> generate_feitelson(const FeitelsonParams& params) {
  if (params.jobs <= 0) {
    throw std::invalid_argument("generate_feitelson: non-positive job count");
  }
  util::Rng rng(params.seed);
  const auto weights = feitelson_size_weights(params.max_size);
  std::vector<SyntheticJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.jobs));
  double clock = 0.0;
  int index = 0;
  while (index < params.jobs) {
    const int size = static_cast<int>(rng.discrete(weights)) + 1;
    const double runtime = feitelson_runtime(rng, size, params);
    // Repeated runs: heavy-tailed count, P(r) ~ r^-2.5.
    int repeats = 1;
    {
      const double u = rng.uniform();
      double cumulative = 0.0;
      double normalizer = 0.0;
      for (int r = 1; r <= kMaxRepeats; ++r) {
        normalizer += std::pow(static_cast<double>(r), -2.5);
      }
      for (int r = 1; r <= kMaxRepeats; ++r) {
        cumulative += std::pow(static_cast<double>(r), -2.5) / normalizer;
        if (u <= cumulative) {
          repeats = r;
          break;
        }
      }
    }
    const int group_first = index;
    for (int r = 0; r < repeats && index < params.jobs; ++r) {
      clock += rng.exponential_mean(params.mean_interarrival);
      SyntheticJob job;
      job.index = index;
      job.arrival = clock;
      job.size = size;
      job.runtime = runtime;
      job.repeat_of = (r == 0) ? -1 : group_first;
      jobs.push_back(job);
      ++index;
    }
  }
  return jobs;
}

double feitelson_balanced_interarrival(const FeitelsonParams& params,
                                       int nodes, double target_load) {
  if (nodes <= 0 || target_load <= 0.0 || target_load > 1.0) {
    throw std::invalid_argument(
        "feitelson_balanced_interarrival: bad nodes/target_load");
  }
  // E[size * runtime] from the same distributions the generator samples:
  // size weights, and per-size hyperexponential means (mirroring
  // feitelson_runtime's branch probability and long-branch scaling).
  const auto weights = feitelson_size_weights(params.max_size);
  double weight_sum = 0.0;
  double node_seconds = 0.0;
  for (int size = 1; size <= params.max_size; ++size) {
    const double w = weights[static_cast<std::size_t>(size - 1)];
    const double size_fraction =
        static_cast<double>(size) / static_cast<double>(params.max_size);
    const double p_short =
        std::clamp(0.85 - 0.35 * size_fraction, 0.3, 0.95);
    const double long_mean =
        params.long_runtime_mean * (0.5 + 0.5 * size_fraction + size_fraction);
    const double mean_runtime =
        p_short * params.short_runtime_mean + (1.0 - p_short) * long_mean;
    weight_sum += w;
    node_seconds += w * static_cast<double>(size) * mean_runtime;
  }
  node_seconds /= weight_sum;
  return node_seconds / (static_cast<double>(nodes) * target_load);
}

WorkloadStats workload_stats(const std::vector<SyntheticJob>& jobs) {
  WorkloadStats stats;
  if (jobs.empty()) return stats;
  double prev_arrival = 0.0;
  double interarrival_sum = 0.0;
  for (const SyntheticJob& job : jobs) {
    stats.mean_size += job.size;
    stats.mean_runtime += job.runtime;
    interarrival_sum += job.arrival - prev_arrival;
    prev_arrival = job.arrival;
    if (is_power_of_two(job.size)) stats.pow2_fraction += 1.0;
    if (job.repeat_of >= 0) ++stats.repeats;
  }
  const auto n = static_cast<double>(jobs.size());
  stats.mean_size /= n;
  stats.mean_runtime /= n;
  stats.mean_interarrival = interarrival_sum / n;
  stats.pow2_fraction /= n;
  return stats;
}

}  // namespace dmr::wl

#include "wl/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmr::wl {

const char* to_string(Malleability policy) {
  switch (policy) {
    case Malleability::Rigid: return "rigid";
    case Malleability::Pow2Halving: return "pow2-halving";
    case Malleability::FractionOfRequest: return "fraction-of-request";
  }
  return "?";
}

int min_nodes_for(int nodes, const MalleabilityConfig& config) {
  if (nodes < 1) {
    throw std::invalid_argument("min_nodes_for: nodes < 1");
  }
  switch (config.policy) {
    case Malleability::Rigid:
      return nodes;
    case Malleability::Pow2Halving:
      return std::max(1, nodes >> kPow2Halvings);
    case Malleability::FractionOfRequest: {
      const double fraction = std::clamp(config.min_fraction, 0.0, 1.0);
      return std::max(
          1, static_cast<int>(std::ceil(static_cast<double>(nodes) * fraction)));
    }
  }
  return nodes;
}

Workload from_feitelson(const std::vector<SyntheticJob>& jobs, int max_size,
                        const MalleabilityConfig& config) {
  if (max_size < 1) {
    throw std::invalid_argument("from_feitelson: max_size < 1");
  }
  Workload workload;
  workload.source = "feitelson";
  workload.target_nodes = max_size;
  workload.jobs.reserve(jobs.size());
  for (const SyntheticJob& job : jobs) {
    WorkloadJob entry;
    entry.index = static_cast<int>(workload.jobs.size());
    entry.arrival = job.arrival;
    entry.nodes = job.size;
    entry.runtime = job.runtime;
    entry.min_nodes = min_nodes_for(job.size, config);
    entry.max_nodes =
        config.policy == Malleability::Rigid || config.expand_limit <= 0
            ? job.size
            : std::max(job.size, std::min(config.expand_limit, max_size));
    entry.source_id = job.index + 1;
    workload.jobs.push_back(entry);
  }
  return workload;
}

}  // namespace dmr::wl

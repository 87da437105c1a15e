// Shared workload job model: the common currency between the Feitelson
// generator (src/wl/feitelson.*) and the SWF trace ingester
// (src/wl/swf.*).  Every trace source — synthetic or archival — reduces
// to a wl::Workload, which drv::plans_from_workload turns into the
// JobPlans the WorkloadDriver consumes.  One job model, many sources.
//
// SWF jobs are rigid (the log records one requested size); the
// malleability annotation gives Algorithm 1 room to reconfigure them by
// deriving per-job [min_nodes, max_nodes] bounds from a policy: keep
// them rigid, allow pow2-style halvings below the request, or allow
// shrinking to a fraction of the request.
#pragma once

#include <string>
#include <vector>

#include "wl/feitelson.hpp"

namespace dmr::wl {

/// Successive halvings a Pow2Halving job may shrink below its request.
constexpr int kPow2Halvings = 2;

/// How rigid trace jobs are annotated with malleability bounds.
enum class Malleability {
  /// min = max = requested size: the job can never be reconfigured.
  Rigid,
  /// The job may shrink by successive halvings below its request:
  /// min = max(1, nodes >> kPow2Halvings).
  Pow2Halving,
  /// The job may shrink to a fraction of its request:
  /// min = max(1, ceil(nodes * min_fraction)).
  FractionOfRequest,
};

const char* to_string(Malleability policy);

struct MalleabilityConfig {
  Malleability policy = Malleability::Pow2Halving;
  /// FractionOfRequest: the floor as a fraction of the request (0 lets
  /// the job shrink all the way to one node).
  double min_fraction = 0.5;
  /// Nodes the job may *expand* to beyond its submit size (0 = none:
  /// max_nodes = submit size).  The Feitelson path uses this to keep the
  /// generator's historical bounds (every job may grow to the trace
  /// maximum); Rigid ignores it.
  int expand_limit = 0;
};

/// Per-job malleability floor under `config` for a `nodes`-node request.
int min_nodes_for(int nodes, const MalleabilityConfig& config);

/// One workload entry, source-agnostic.
struct WorkloadJob {
  int index = 0;         // position in the workload
  double arrival = 0.0;  // absolute submission time (seconds)
  int nodes = 1;         // submit size in nodes
  double runtime = 0.0;  // execution time at the submit size (seconds)
  int min_nodes = 1;     // malleability floor (== nodes when rigid)
  int max_nodes = 1;     // malleability ceiling (== nodes when rigid)
  /// Provenance: SWF job_number, or the Feitelson job index + 1.
  long long source_id = 0;
};

struct Workload {
  /// Where the jobs came from ("feitelson", or the SWF file name).
  std::string source;
  /// Cluster size the workload was shaped/generated for (0 = unknown).
  int target_nodes = 0;
  std::vector<WorkloadJob> jobs;
};

/// Convert a Feitelson trace into the shared model.  `max_size` is the
/// generator's FeitelsonParams::max_size (bounds the expand limit).
Workload from_feitelson(const std::vector<SyntheticJob>& jobs, int max_size,
                        const MalleabilityConfig& config);

}  // namespace dmr::wl

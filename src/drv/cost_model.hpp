// Reconfiguration cost model for the virtual-time experiments.
//
// A resize's non-solving time has two parts: process management (spawn /
// teardown, the Slurm protocol round-trips) and data movement.  The DMR
// API moves data rank-to-rank over the interconnect; the C/R baseline
// routes the full state through stable storage (write + read back), which
// is where Fig. 1's 31-77x spawn-cost gap comes from.
//
// The movement half is expressed as a redist::Report — the same value a
// real redistribution measures — priced at the nominal hardware figures
// below; bench/micro_redistribute prints it beside each measured
// movement.
#pragma once

#include <cstddef>

#include "redist/move.hpp"

namespace dmr::drv {

struct CostModel {
  /// Fixed protocol latency per resize (resizer-job round trip, spawn).
  static constexpr double kSpawnLatency = 0.2;
  /// Per-new-process launch cost.
  static constexpr double kPerProcSpawn = 0.005;
  /// Effective interconnect bandwidth per participating node pair (B/s);
  /// FDR10-class fabric.
  static constexpr double kNetworkBandwidth = 2.0e9;
  /// Parallel filesystem bandwidths for the C/R baseline (aggregate).
  static constexpr double kCheckpointWriteBw = 0.25e9;
  static constexpr double kCheckpointReadBw = 0.5e9;
  /// C/R additionally tears the job down and resubmits it through the
  /// batch queue before reloading (the requeue latency the DMR protocol
  /// avoids by keeping the job alive during the resize).
  static constexpr double kCrRequeueLatency = 5.0;

  /// Route resizes through checkpoint files instead of the runtime
  /// redistribution (the C/R ablation).
  bool use_checkpoint_restart = false;

  /// Modeled data movement for resizing `old_procs` -> `new_procs` with
  /// `state_bytes` of registered application state — the Report a
  /// virtual-time substrate "measures" for the resize.  `node_speed` is
  /// the allocation's gating partition speed factor (Cluster::min_speed):
  /// per-lane transfer bandwidth scales with it, so resizes on slow
  /// partitions pay proportionally more (slow nodes drive their NICs at
  /// the same deficit as their cores; non-positive values mean 1.0).
  /// The checkpoint route is unscaled — the parallel filesystem is a
  /// shared resource, not the nodes'.
  redist::Report movement(std::size_t state_bytes, int old_procs,
                          int new_procs, double node_speed = 1.0) const;

  /// Seconds of non-solving time for the whole resize: process
  /// management plus movement().seconds.
  double reconfigure_seconds(std::size_t state_bytes, int old_procs,
                             int new_procs, double node_speed = 1.0) const;

  /// Spawn/teardown share only (no data movement).
  double protocol_seconds(int new_procs) const;

  /// Fraction of the state that crosses node boundaries in a DMR resize
  /// (elements whose owning rank index changes).
  static double migrated_fraction(int old_procs, int new_procs);
};

}  // namespace dmr::drv

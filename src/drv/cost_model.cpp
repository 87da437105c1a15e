#include "drv/cost_model.hpp"

#include <algorithm>

#include "rt/redistribute.hpp"

namespace dmr::drv {

double CostModel::migrated_fraction(int old_procs, int new_procs) {
  // Count on a nominal element count; the fraction is size-independent
  // for balanced blocks once the count is much larger than the rank
  // counts.  Rank r of the new set lands on the node of old rank r, so
  // an element stays put exactly when it lies in block r of both
  // layouts: everything outside those overlaps crosses the network.
  constexpr std::size_t kNominal = 1 << 20;
  const rt::BlockDistribution from(kNominal, old_procs);
  const rt::BlockDistribution to(kNominal, new_procs);
  std::size_t kept = 0;
  for (int r = 0; r < std::min(old_procs, new_procs); ++r) {
    const std::size_t lo = std::max(from.begin(r), to.begin(r));
    const std::size_t hi = std::min(from.end(r), to.end(r));
    if (hi > lo) kept += hi - lo;
  }
  return static_cast<double>(kNominal - kept) / static_cast<double>(kNominal);
}

redist::Report CostModel::movement(std::size_t state_bytes, int old_procs,
                                   int new_procs, double node_speed) const {
  redist::Report report;
  report.bytes_total = state_bytes;
  if (use_checkpoint_restart) {
    // Full state to disk and back through the parallel filesystem.
    report.via_checkpoint = true;
    report.bytes_moved = 2 * state_bytes;
    report.transfers = 2;
    report.seconds = static_cast<double>(state_bytes) / kCheckpointWriteBw +
                     static_cast<double>(state_bytes) / kCheckpointReadBw;
    return report;
  }
  // DMR: only the migrating fraction crosses the network, and transfers
  // proceed in parallel across the participating nodes.
  report.bytes_moved = static_cast<std::size_t>(
      static_cast<double>(state_bytes) *
      migrated_fraction(old_procs, new_procs));
  report.transfers = old_procs + new_procs;
  const int lanes = std::max(1, std::min(old_procs, new_procs));
  report.lanes = lanes;
  // The nominal figure, scaled by the partition speed of the nodes doing
  // the moving.
  const double speed = node_speed > 0.0 ? node_speed : 1.0;
  const double per_lane = kNetworkBandwidth * speed;
  report.seconds =
      static_cast<double>(report.bytes_moved) / (per_lane * lanes);
  return report;
}

double CostModel::protocol_seconds(int new_procs) const {
  double seconds = kSpawnLatency + kPerProcSpawn * new_procs;
  if (use_checkpoint_restart) seconds += kCrRequeueLatency;
  return seconds;
}

double CostModel::reconfigure_seconds(std::size_t state_bytes, int old_procs,
                                      int new_procs,
                                      double node_speed) const {
  return protocol_seconds(new_procs) +
         movement(state_bytes, old_procs, new_procs, node_speed).seconds;
}

}  // namespace dmr::drv

// Moving every registered buffer across the old -> new process set of a
// resize: the offload half runs on each old rank, the reception half on
// each new rank, over the spawn link.
//
// Transfers are sliced into fixed-size chunks and streamed, in the style
// of mscclpp's proxy channels: each new rank keeps a bounded window of
// receives posted ahead of the chunk it copies, overlapping the copy-in
// of one chunk with the flight of the next instead of materializing
// whole-buffer messages.  Every call returns the measured movement as a
// Report, the same value drv::CostModel::movement models in virtual time.
#pragma once

#include <cstddef>

#include "redist/buffer.hpp"

namespace dmr::smpi {
class Comm;
}  // namespace dmr::smpi

namespace dmr::redist {

/// Measured cost of one side of a redistribution.
struct Report {
  std::size_t bytes_moved = 0;  ///< bytes that crossed the old->new link
  std::size_t bytes_total = 0;  ///< global bytes of all registered buffers
  int transfers = 0;            ///< point-to-point messages (or file ops)
  double seconds = 0.0;         ///< wall time of this side of the movement
  /// Parallel transfer lanes the movement used: min(old, new) over the
  /// spawn link, 1 for the modeled C/R route through stable storage.
  int lanes = 1;
  bool via_checkpoint = false;  ///< routed through stable storage

  /// Merge a concurrently-measured sibling (another rank of the same
  /// resize): sums bytes/transfers but keeps the slowest wall time, so
  /// the merged report reads as the resize's aggregate movement.
  void merge_concurrent(const Report& other);
};

/// Where a half runs: one side of the spawn inter-communicator.
struct Endpoint {
  const smpi::Comm* link = nullptr;  ///< inter-comm to the other side
  int rank = 0;                      ///< rank within this side's group
  int old_size = 0;
  int new_size = 0;
};

/// Slice size; transfers smaller than this go out as one chunk.
inline constexpr std::size_t kChunkBytes = std::size_t(64) << 10;
/// Receives each new rank keeps posted ahead of the chunk it copies.
/// This bounds the receive side only: a send is buffered (the chunk is
/// copied into the receiver's mailbox), so the sender never waits.
inline constexpr int kMaxInFlight = 4;

/// Old-side half: offload this rank's share of every registered buffer
/// into the link.  Called once per old rank, concurrently from every
/// rank thread.
Report send_buffers(const Endpoint& endpoint, const Registry& registry);

/// New-side half: resize every registered buffer to the new layout and
/// populate it from the link.
Report recv_buffers(const Endpoint& endpoint, Registry& registry);

}  // namespace dmr::redist

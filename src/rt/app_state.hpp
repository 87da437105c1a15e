// AppState: the application side of real-mode malleable execution.
//
// An application registers its distributed structures once (typically
// in the constructor) and overrides init / compute_step, plus
// on_layout_changed when it keeps rank-derived members.  It never
// touches the wire: on a resize the loop moves every registered buffer
// with redist::send_buffers / recv_buffers, and the global checkpoint
// format used by the C/R baseline is derived from the same
// registrations — rank-local blocks are assembled into (and sliced back
// out of) canonical global order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "redist/move.hpp"
#include "smpi/comm.hpp"

namespace dmr::rt {

class AppState {
 public:
  virtual ~AppState() = default;

  /// Fresh start on the initial process set.
  virtual void init(int rank, int nprocs) = 0;

  /// One solver iteration over the current communicator.
  virtual void compute_step(const smpi::Comm& world, int step) = 0;

  /// The rank-local buffer registrations (wire order = registration
  /// order; must match across every rank of both process sets).
  redist::Registry& registry() { return registry_; }
  const redist::Registry& registry() const { return registry_; }

  /// Offload this old rank's buffers into the new configuration
  /// (`new_size` ranks on the remote side of `inter`).
  redist::Report send_state(const smpi::Comm& inter, int my_old_rank,
                            int old_size, int new_size) const;

  /// Rebuild local state on a freshly spawned rank from the parent side.
  redist::Report recv_state(const smpi::Comm& parent, int my_new_rank,
                            int old_size, int new_size);

  /// Collective: rank 0 returns the full serialized application state
  /// (others return empty): each buffer in canonical global element
  /// order, concatenated in registration order.
  std::vector<std::byte> serialize_global(const smpi::Comm& world) const;

  /// Collective inverse: rank 0 passes the bytes, every rank rebuilds its
  /// block for the current communicator size.
  void deserialize_global(const smpi::Comm& world,
                          std::span<const std::byte> bytes);

 protected:
  /// Called after recv_state / deserialize_global installed the new
  /// geometry, so subclasses can refresh rank-derived members.
  virtual void on_layout_changed(int rank, int nprocs);

 private:
  redist::Registry registry_;
};

}  // namespace dmr::rt

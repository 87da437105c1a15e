// dmr::redist — the data-redistribution subsystem.
//
// Applications register their resize-relevant state as typed buffers
// (dmr::Buffer: element size, global count, layout) in a per-rank
// dmr::redist::Registry; on a resize redist::send_buffers and
// redist::recv_buffers move every registered buffer across the
// old -> new process set in 64 KiB chunks and report the measured cost
// (redist::Report).
#pragma once

#include "redist/buffer.hpp"  // IWYU pragma: export
#include "redist/move.hpp"    // IWYU pragma: export

namespace dmr {

/// The buffer descriptor applications fill when registering state.
using Buffer = redist::Buffer;
using redist::Layout;

}  // namespace dmr

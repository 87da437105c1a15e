// PipelinedChunks: chunked, bounded-in-flight transfers over the spawn
// link, in the style of mscclpp's proxy channels — large transfers are
// sliced into fixed-size chunks and streamed, overlapping the copy-in of
// one chunk with the flight of the next instead of materializing
// whole-buffer messages.
#pragma once

#include <cstddef>

#include "redist/strategy.hpp"

namespace dmr::redist {

class PipelinedChunks final : public Strategy {
 public:
  /// Slice size; transfers smaller than this go out as one chunk.
  static constexpr std::size_t kChunkBytes = std::size_t(64) << 10;
  /// Receives each new rank keeps posted ahead of the chunk it copies.
  /// This bounds the receive side only: a send is buffered (the chunk
  /// is copied into the receiver's mailbox), so the sender never waits.
  static constexpr int kMaxInFlight = 4;

  std::string name() const override { return "pipelined"; }
  Report send(const Endpoint& endpoint, const Registry& registry) override;
  Report recv(const Endpoint& endpoint, Registry& registry) override;
};

}  // namespace dmr::redist

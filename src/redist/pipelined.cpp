#include "redist/pipelined.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "smpi/comm.hpp"
#include "smpi/request.hpp"
#include "util/clock.hpp"

namespace dmr::redist {

namespace {

using util::wall_seconds;

/// Distinct from the P2pPlan range so mixed use cannot cross-match.
constexpr int kPipeTagBase = 7800;

/// One chunk of one transfer, in the deterministic enumeration both
/// sides derive independently from the shared plan: buffers in
/// registration order, transfers in plan order, chunks in offset order.
struct Chunk {
  int peer = 0;  // dst rank when sending, src rank when receiving
  int tag = 0;
  std::size_t offset = 0;  // byte offset into the rank's local storage
  std::size_t size = 0;    // bytes
};

template <typename Filter>
std::vector<Chunk> enumerate_chunks(const Endpoint& endpoint,
                                    const Registry& registry,
                                    std::size_t chunk_bytes, bool sending,
                                    Filter mine) {
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Binding& binding = registry.at(i);
    const std::size_t elem = binding.desc.elem_size;
    const auto plan =
        plan_transfers(binding.desc, endpoint.old_size, endpoint.new_size);
    const int tag = kPipeTagBase + static_cast<int>(i);
    for (const Transfer& t : plan) {
      if (!mine(t)) continue;
      const std::size_t base =
          (sending ? t.src_offset : t.dst_offset) * elem;
      const std::size_t bytes = t.count * elem;
      for (std::size_t off = 0; off < bytes; off += chunk_bytes) {
        chunks.push_back({sending ? t.dst_rank : t.src_rank, tag,
                          base + off, std::min(chunk_bytes, bytes - off)});
      }
    }
  }
  return chunks;
}

}  // namespace

PipelinedChunks::PipelinedChunks(PipelinedOptions options)
    : options_(options) {
  if (options_.chunk_bytes == 0) {
    throw std::invalid_argument("PipelinedChunks: zero chunk size");
  }
  if (options_.max_in_flight <= 0) {
    throw std::invalid_argument("PipelinedChunks: non-positive window");
  }
}

Report PipelinedChunks::send(const Endpoint& endpoint,
                             const Registry& registry) {
  Report report;
  report.bytes_total = registry.total_bytes();
  report.lanes = std::max(1, std::min(endpoint.old_size, endpoint.new_size));
  const double start = wall_seconds();
  const auto chunks = enumerate_chunks(
      endpoint, registry, options_.chunk_bytes, /*sending=*/true,
      [&](const Transfer& t) { return t.src_rank == endpoint.rank; });
  // Stream the chunks with a bounded window of outstanding isends.
  std::deque<smpi::Request> window;
  for (const Chunk& chunk : chunks) {
    const Binding& owner =
        registry.at(static_cast<std::size_t>(chunk.tag - kPipeTagBase));
    if (static_cast<int>(window.size()) >= options_.max_in_flight) {
      window.front().wait();
      window.pop_front();
    }
    window.push_back(endpoint.link->isend_bytes(
        chunk.peer, chunk.tag,
        owner.read().subspan(chunk.offset, chunk.size)));
    report.bytes_moved += chunk.size;
    ++report.transfers;
  }
  for (auto& request : window) request.wait();
  report.seconds = wall_seconds() - start;
  return report;
}

Report PipelinedChunks::recv(const Endpoint& endpoint, Registry& registry) {
  Report report;
  report.bytes_total = registry.total_bytes();
  report.lanes = std::max(1, std::min(endpoint.old_size, endpoint.new_size));
  const double start = wall_seconds();
  // Lay out every buffer for the new geometry first so chunk offsets
  // resolve to stable storage.
  std::vector<std::span<std::byte>> storage(registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    Binding& binding = registry.at(i);
    const Distribution dist(binding.desc, endpoint.new_size);
    storage[i] = binding.resize(dist.local_count(endpoint.rank));
  }
  const auto chunks = enumerate_chunks(
      endpoint, registry, options_.chunk_bytes, /*sending=*/false,
      [&](const Transfer& t) { return t.dst_rank == endpoint.rank; });
  // Bounded look-ahead: keep up to max_in_flight receives posted, then
  // complete them in enumeration order (FIFO per (source, tag) matches
  // the sender's chunk order).
  std::deque<smpi::Request> window;
  std::size_t posted = 0;
  for (std::size_t done = 0; done < chunks.size(); ++done) {
    while (posted < chunks.size() &&
           posted - done < static_cast<std::size_t>(options_.max_in_flight)) {
      window.push_back(endpoint.link->irecv_bytes(chunks[posted].peer,
                                                  chunks[posted].tag));
      ++posted;
    }
    const Chunk& chunk = chunks[done];
    auto payload = window.front().take_data();
    window.pop_front();
    if (payload.size() != chunk.size) {
      throw std::runtime_error("PipelinedChunks: chunk size mismatch");
    }
    const auto out =
        storage[static_cast<std::size_t>(chunk.tag - kPipeTagBase)];
    std::memcpy(out.data() + chunk.offset, payload.data(), payload.size());
    report.bytes_moved += payload.size();
    ++report.transfers;
  }
  report.seconds = wall_seconds() - start;
  return report;
}

}  // namespace dmr::redist

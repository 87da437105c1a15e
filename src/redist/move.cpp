#include "redist/move.hpp"

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

/// Message tags: one per registered buffer, in registration order.
constexpr int kTagBase = 7800;

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
                                    const Registry& registry, bool sending,
                                    Filter mine) {
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Binding& binding = registry.at(i);
    const std::size_t elem = binding.desc.elem_size;
    const auto plan =
        plan_transfers(binding.desc, endpoint.old_size, endpoint.new_size);
    const int tag = kTagBase + static_cast<int>(i);
    for (const Transfer& t : plan) {
      if (!mine(t)) continue;
      const std::size_t base =
          (sending ? t.src_offset : t.dst_offset) * elem;
      const std::size_t bytes = t.count * elem;
      for (std::size_t off = 0; off < bytes; off += kChunkBytes) {
        chunks.push_back({sending ? t.dst_rank : t.src_rank, tag,
                          base + off, std::min(kChunkBytes, bytes - off)});
      }
    }
  }
  return chunks;
}

Report start_report(const Endpoint& endpoint, const Registry& registry) {
  Report report;
  report.bytes_total = registry.total_bytes();
  report.lanes = std::max(1, std::min(endpoint.old_size, endpoint.new_size));
  return report;
}

}  // namespace

void Report::merge_concurrent(const Report& other) {
  bytes_moved += other.bytes_moved;
  bytes_total = std::max(bytes_total, other.bytes_total);
  transfers += other.transfers;
  seconds = std::max(seconds, other.seconds);
  lanes = std::max(lanes, other.lanes);
  via_checkpoint = via_checkpoint || other.via_checkpoint;
}

Report send_buffers(const Endpoint& endpoint, const Registry& registry) {
  Report report = start_report(endpoint, registry);
  const double start = wall_seconds();
  const auto chunks = enumerate_chunks(
      endpoint, registry, /*sending=*/true,
      [&](const Transfer& t) { return t.src_rank == endpoint.rank; });
  for (const Chunk& chunk : chunks) {
    const Binding& owner =
        registry.at(static_cast<std::size_t>(chunk.tag - kTagBase));
    endpoint.link->send_bytes(chunk.peer, chunk.tag,
                              owner.read().subspan(chunk.offset, chunk.size));
    report.bytes_moved += chunk.size;
    ++report.transfers;
  }
  report.seconds = wall_seconds() - start;
  return report;
}

Report recv_buffers(const Endpoint& endpoint, Registry& registry) {
  Report report = start_report(endpoint, registry);
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
      endpoint, registry, /*sending=*/false,
      [&](const Transfer& t) { return t.dst_rank == endpoint.rank; });
  // Bounded look-ahead: keep up to kMaxInFlight receives posted, then
  // complete them in enumeration order (FIFO per (source, tag) matches
  // the sender's chunk order).
  std::deque<smpi::Request> window;
  std::size_t posted = 0;
  for (std::size_t done = 0; done < chunks.size(); ++done) {
    while (posted < chunks.size() &&
           posted - done < static_cast<std::size_t>(kMaxInFlight)) {
      window.push_back(endpoint.link->irecv_bytes(chunks[posted].peer,
                                                  chunks[posted].tag));
      ++posted;
    }
    const Chunk& chunk = chunks[done];
    auto payload = window.front().take_data();
    window.pop_front();
    if (payload.size() != chunk.size) {
      throw std::runtime_error("recv_buffers: chunk size mismatch");
    }
    const auto out = storage[static_cast<std::size_t>(chunk.tag - kTagBase)];
    std::memcpy(out.data() + chunk.offset, payload.data(), payload.size());
    report.bytes_moved += payload.size();
    ++report.transfers;
  }
  report.seconds = wall_seconds() - start;
  return report;
}

}  // namespace dmr::redist

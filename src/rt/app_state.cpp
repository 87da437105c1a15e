#include "rt/app_state.hpp"

#include <cstring>
#include <stdexcept>

namespace dmr::rt {

void AppState::on_layout_changed(int rank, int nprocs) {
  (void)rank;
  (void)nprocs;
}

redist::Report AppState::send_state(const smpi::Comm& inter, int my_old_rank,
                                    int old_size, int new_size) const {
  return redist::send_buffers({&inter, my_old_rank, old_size, new_size},
                              registry_);
}

redist::Report AppState::recv_state(const smpi::Comm& parent, int my_new_rank,
                                    int old_size, int new_size) {
  const redist::Report report = redist::recv_buffers(
      {&parent, my_new_rank, old_size, new_size}, registry_);
  on_layout_changed(my_new_rank, new_size);
  return report;
}

std::vector<std::byte> AppState::serialize_global(
    const smpi::Comm& world) const {
  std::vector<std::byte> out;
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const redist::Binding& binding = registry_.at(i);
    const std::size_t elem = binding.desc.elem_size;
    if (binding.desc.layout == redist::Layout::Replicated) {
      // Every rank holds identical bytes; rank 0's copy is canonical.
      if (world.rank() == 0) {
        const auto bytes = binding.read();
        out.insert(out.end(), bytes.begin(), bytes.end());
      }
      continue;
    }
    std::vector<std::byte> gathered;
    world.gatherv(binding.read(), gathered, 0);
    if (world.rank() != 0) continue;
    const redist::Distribution dist(binding.desc, world.size());
    const std::size_t base = out.size();
    out.resize(base + binding.desc.bytes_total());
    std::size_t pos = 0;  // cursor into the rank-concatenated bytes
    for (int r = 0; r < world.size(); ++r) {
      dist.for_each_local_run(r, [&](std::size_t global, std::size_t elems) {
        std::memcpy(out.data() + base + global * elem, gathered.data() + pos,
                    elems * elem);
        pos += elems * elem;
      });
    }
    if (pos != binding.desc.bytes_total()) {
      throw std::runtime_error("AppState: gathered size mismatch for '" +
                               binding.desc.name + "'");
    }
  }
  return out;
}

void AppState::deserialize_global(const smpi::Comm& world,
                                  std::span<const std::byte> bytes) {
  if (world.rank() == 0 && bytes.size() != registry_.total_bytes()) {
    throw std::runtime_error("AppState: checkpoint size mismatch");
  }
  std::size_t offset = 0;  // meaningful on rank 0 only
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    redist::Binding& binding = registry_.at(i);
    const std::size_t elem = binding.desc.elem_size;
    const redist::Distribution dist(binding.desc, world.size());
    if (binding.desc.layout == redist::Layout::Replicated) {
      std::vector<std::byte> blob;
      if (world.rank() == 0) {
        blob.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                    bytes.begin() + static_cast<std::ptrdiff_t>(
                                        offset + binding.desc.bytes_total()));
        offset += binding.desc.bytes_total();
      }
      world.bcast(blob, 0);
      const auto local = binding.resize(binding.desc.count);
      std::memcpy(local.data(), blob.data(), blob.size());
      continue;
    }
    std::vector<std::vector<std::byte>> chunks;
    if (world.rank() == 0) {
      chunks.resize(static_cast<std::size_t>(world.size()));
      for (int r = 0; r < world.size(); ++r) {
        auto& chunk = chunks[static_cast<std::size_t>(r)];
        chunk.reserve(dist.local_count(r) * elem);
        dist.for_each_local_run(r, [&](std::size_t global,
                                       std::size_t elems) {
          const auto* begin = bytes.data() + offset + global * elem;
          chunk.insert(chunk.end(), begin, begin + elems * elem);
        });
      }
      offset += binding.desc.bytes_total();
    }
    const auto mine = world.scatterv(chunks, 0);
    const auto local = binding.resize(dist.local_count(world.rank()));
    if (mine.size() != local.size()) {
      throw std::runtime_error("AppState: restored block size mismatch for '" +
                               binding.desc.name + "'");
    }
    std::memcpy(local.data(), mine.data(), mine.size());
  }
  on_layout_changed(world.rank(), world.size());
}

}  // namespace dmr::rt

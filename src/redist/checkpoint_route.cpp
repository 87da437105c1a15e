#include "redist/checkpoint_route.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "smpi/comm.hpp"
#include "util/clock.hpp"

namespace dmr::redist {

namespace {

using util::wall_seconds;

constexpr int kReadyTag = 7990;

std::string shard_name(const Buffer& desc, int rank) {
  return desc.name + ".r" + std::to_string(rank);
}

std::filesystem::path fresh_directory() {
  static std::atomic<int> counter{0};
  return std::filesystem::temp_directory_path() /
         ("dmr_redist_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1)));
}

}  // namespace

CheckpointRoute::CheckpointRoute(CheckpointRouteOptions options) {
  std::filesystem::path directory = options.directory;
  if (directory.empty()) {
    directory = fresh_directory();
    owned_directory_ = directory;
  }
  store_ = std::make_unique<ckpt::CheckpointStore>(
      ckpt::CheckpointOptions{directory, options.fsync});
}

CheckpointRoute::~CheckpointRoute() {
  if (owned_directory_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(owned_directory_, ec);  // best effort
}

Report CheckpointRoute::send(const Endpoint& endpoint,
                             const Registry& registry) {
  Report report;
  report.via_checkpoint = true;
  report.bytes_total = registry.total_bytes();
  const double start = wall_seconds();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Binding& binding = registry.at(i);
    const auto bytes = binding.read();
    store_->write(shard_name(binding.desc, endpoint.rank), bytes);
    report.bytes_moved += bytes.size();
    ++report.transfers;
  }
  // The link only carries the readiness wave: every new rank learns this
  // old rank's shards hit the store (the paper's drain-ACK direction,
  // reversed).
  for (int dst = 0; dst < endpoint.new_size; ++dst) {
    endpoint.link->send_value(dst, kReadyTag, endpoint.rank);
  }
  report.seconds = wall_seconds() - start;
  return report;
}

Report CheckpointRoute::recv(const Endpoint& endpoint, Registry& registry) {
  Report report;
  report.via_checkpoint = true;
  report.bytes_total = registry.total_bytes();
  const double start = wall_seconds();
  for (int src = 0; src < endpoint.old_size; ++src) {
    (void)endpoint.link->recv_value<int>(src, kReadyTag);
  }
  for (std::size_t i = 0; i < registry.size(); ++i) {
    Binding& binding = registry.at(i);
    const std::size_t elem = binding.desc.elem_size;
    const Distribution dist(binding.desc, endpoint.new_size);
    const auto out = binding.resize(dist.local_count(endpoint.rank));
    const auto plan =
        plan_transfers(binding.desc, endpoint.old_size, endpoint.new_size);
    std::map<int, std::vector<std::byte>> shards;  // src rank -> bytes
    for (const Transfer& t : plan) {
      if (t.dst_rank != endpoint.rank) continue;
      auto it = shards.find(t.src_rank);
      if (it == shards.end()) {
        it = shards
                 .emplace(t.src_rank,
                          store_->read(shard_name(binding.desc, t.src_rank)))
                 .first;
        ++report.transfers;
      }
      const auto& shard = it->second;
      if ((t.src_offset + t.count) * elem > shard.size()) {
        throw std::runtime_error("CheckpointRoute: shard '" +
                                 binding.desc.name + "' too small");
      }
      std::memcpy(out.data() + t.dst_offset * elem,
                  shard.data() + t.src_offset * elem, t.count * elem);
      report.bytes_moved += t.count * elem;
    }
  }
  report.seconds = wall_seconds() - start;
  return report;
}

}  // namespace dmr::redist

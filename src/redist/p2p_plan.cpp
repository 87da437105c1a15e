#include "redist/p2p_plan.hpp"

#include <algorithm>
#include <cstring>

#include "smpi/comm.hpp"
#include "util/clock.hpp"

namespace dmr::redist {

namespace {

using util::wall_seconds;

/// Message tags: one per registered buffer, in registration order.
constexpr int kP2pTagBase = 7600;

}  // namespace

Report P2pPlan::send(const Endpoint& endpoint, const Registry& registry) {
  Report report;
  report.bytes_total = registry.total_bytes();
  report.lanes = std::max(1, std::min(endpoint.old_size, endpoint.new_size));
  const double start = wall_seconds();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Binding& binding = registry.at(i);
    const std::size_t elem = binding.desc.elem_size;
    const auto bytes = binding.read();
    const auto plan =
        plan_transfers(binding.desc, endpoint.old_size, endpoint.new_size);
    const int tag = kP2pTagBase + static_cast<int>(i);
    for (const Transfer& t : plan) {
      if (t.src_rank != endpoint.rank) continue;
      endpoint.link->send_bytes(
          t.dst_rank, tag, bytes.subspan(t.src_offset * elem, t.count * elem));
      report.bytes_moved += t.count * elem;
      ++report.transfers;
    }
  }
  report.seconds = wall_seconds() - start;
  return report;
}

Report P2pPlan::recv(const Endpoint& endpoint, Registry& registry) {
  Report report;
  report.bytes_total = registry.total_bytes();
  report.lanes = std::max(1, std::min(endpoint.old_size, endpoint.new_size));
  const double start = wall_seconds();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    Binding& binding = registry.at(i);
    const std::size_t elem = binding.desc.elem_size;
    const Distribution dist(binding.desc, endpoint.new_size);
    const auto out = binding.resize(dist.local_count(endpoint.rank));
    const auto plan =
        plan_transfers(binding.desc, endpoint.old_size, endpoint.new_size);
    const int tag = kP2pTagBase + static_cast<int>(i);
    for (const Transfer& t : plan) {
      if (t.dst_rank != endpoint.rank) continue;
      const auto payload = endpoint.link->recv_bytes(t.src_rank, tag);
      if (payload.size() != t.count * elem) {
        throw std::runtime_error("P2pPlan: transfer size mismatch for '" +
                                 binding.desc.name + "'");
      }
      std::memcpy(out.data() + t.dst_offset * elem, payload.data(),
                  payload.size());
      report.bytes_moved += payload.size();
      ++report.transfers;
    }
  }
  report.seconds = wall_seconds() - start;
  return report;
}

}  // namespace dmr::redist

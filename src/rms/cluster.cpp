#include "rms/cluster.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dmr::rms {

Cluster::Cluster(int node_count)
    : Cluster(std::vector<Partition>{Partition{"vnode", node_count, 1.0}}) {}

Cluster::Cluster(std::vector<Partition> partitions)
    : partitions_(std::move(partitions)) {
  if (partitions_.empty()) {
    throw std::invalid_argument("Cluster: no partitions");
  }
  int total = 0;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const Partition& part = partitions_[p];
    if (partition_index(part.name) != static_cast<int>(p)) {
      throw std::invalid_argument("Cluster: duplicate partition name '" +
                                  part.name + "'");
    }
    if (part.nodes <= 0) {
      throw std::invalid_argument("Cluster: non-positive node count in '" +
                                  part.name + "'");
    }
    if (part.speed <= 0.0) {
      throw std::invalid_argument("Cluster: non-positive speed in '" +
                                  part.name + "'");
    }
    total += part.nodes;
  }
  nodes_.resize(static_cast<std::size_t>(total));
  node_partition_.resize(static_cast<std::size_t>(total));
  draining_.assign(static_cast<std::size_t>(total), 0);
  idle_per_partition_.resize(partitions_.size());
  int id = 0;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const Partition& part = partitions_[p];
    for (int local = 0; local < part.nodes; ++local, ++id) {
      nodes_[static_cast<std::size_t>(id)].name =
          part.name + std::to_string(local);
      node_partition_[static_cast<std::size_t>(id)] = static_cast<int>(p);
    }
    idle_per_partition_[p] = part.nodes;
  }
  idle_count_ = total;
  idle_bits_.assign((static_cast<std::size_t>(total) + 63) / 64, 0);
  for (int n = 0; n < total; ++n) set_idle_bit(n);
  uniform_speed_ = partitions_.front().speed;
  for (const Partition& part : partitions_) {
    if (part.speed != uniform_speed_) {
      uniform_speed_ = 0.0;
      break;
    }
  }
}

std::string to_string(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::LowestId: return "lowest-id";
    case AllocPolicy::Pack: return "pack";
  }
  return "unknown";
}

int Cluster::partition_index(const std::string& name) const {
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (partitions_[p].name == name) return static_cast<int>(p);
  }
  return kAnyPartition;
}

int Cluster::idle_in(int partition) const {
  return idle_per_partition_.at(static_cast<std::size_t>(partition));
}

int Cluster::allocated_in(int partition) const {
  return partitions_.at(static_cast<std::size_t>(partition)).nodes -
         idle_in(partition);
}

double Cluster::min_speed(const std::vector<int>& node_ids) const {
  // Homogeneous cluster: every node runs at the same speed, so the
  // per-node scan (paid on every synchronous step) collapses to it.
  if (uniform_speed_ > 0.0 && !node_ids.empty()) return uniform_speed_;
  double slowest = 1.0;
  bool first = true;
  for (int id : node_ids) {
    const int part = node_partition_.at(static_cast<std::size_t>(id));
    const double speed = partitions_[static_cast<std::size_t>(part)].speed;
    if (first || speed < slowest) slowest = speed;
    first = false;
  }
  return slowest;
}

Node& Cluster::mutable_node(int id) {
  if (id < 0 || id >= size()) {
    throw std::out_of_range("Cluster: node id out of range");
  }
  return nodes_[static_cast<std::size_t>(id)];
}

std::vector<int> pack_partition_order(std::span<const int> idle_per_partition,
                                      int count) {
  const auto idle = [&](int p) {
    return idle_per_partition[static_cast<std::size_t>(p)];
  };
  const int parts = static_cast<int>(idle_per_partition.size());
  // Best fit: the partition with the fewest idle nodes that still holds
  // the whole grant (ties break on the lower index).
  int best = kAnyPartition;
  for (int p = 0; p < parts; ++p) {
    if (idle(p) < count) continue;
    if (best == kAnyPartition || idle(p) < idle(best)) best = p;
  }
  if (best != kAnyPartition) return {best};
  // No single partition fits: span as few partitions as possible by
  // consuming them in descending idle count (ties on the lower index).
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    if (idle(p) > 0) order.push_back(p);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return idle(a) > idle(b); });
  return order;
}

void Cluster::add_nodes(int count) {
  if (count <= 0) {
    throw std::invalid_argument("Cluster: non-positive node count to add");
  }
  constexpr int partition = 0;
  Partition& part = partitions_.front();
  int local = part.nodes;
  for (int added = 0; added < count; ++added, ++local) {
    nodes_.push_back(Node{.name = part.name + std::to_string(local)});
    node_partition_.push_back(partition);
    draining_.push_back(0);
    idle_bits_.resize((nodes_.size() + 63) / 64, 0);
    set_idle_bit(static_cast<int>(nodes_.size()) - 1);
  }
  part.nodes += count;
  idle_per_partition_[static_cast<std::size_t>(partition)] += count;
  idle_count_ += count;
}

std::vector<int> grant_order(std::span<const std::uint64_t> idle_bits,
                             std::span<const int> node_partition,
                             std::span<const int> idle_per_partition,
                             int count, int partition, AllocPolicy policy) {
  std::vector<int> granted;
  granted.reserve(static_cast<std::size_t>(count));
  // Lowest id first within `pool`: walk the set bits of the idle bitmap
  // in id order, at a word per 64 nodes.
  const auto take_from = [&](int pool, int want) {
    for (std::size_t w = 0; w < idle_bits.size() && want > 0; ++w) {
      std::uint64_t bits = idle_bits[w];
      while (bits != 0 && want > 0) {
        const int id = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (pool != kAnyPartition &&
            node_partition[static_cast<std::size_t>(id)] != pool) {
          continue;
        }
        granted.push_back(id);
        --want;
      }
    }
  };
  if (partition == kAnyPartition && policy == AllocPolicy::Pack &&
      idle_per_partition.size() > 1) {
    for (int pool : pack_partition_order(idle_per_partition, count)) {
      take_from(pool, count - static_cast<int>(granted.size()));
    }
  } else {
    take_from(partition, count);
  }
  return granted;
}

std::vector<int> Cluster::allocate(JobId job, int count, int partition,
                                   AllocPolicy policy) {
  if (count <= 0) throw std::invalid_argument("Cluster: non-positive count");
  const int available =
      partition == kAnyPartition ? idle_count_ : idle_in(partition);
  if (count > available) {
    throw std::runtime_error("Cluster: insufficient idle nodes");
  }
  std::vector<int> granted = grant_order(idle_bits_, node_partition_,
                                         idle_per_partition_, count,
                                         partition, policy);
  for (int id : granted) {
    nodes_[static_cast<std::size_t>(id)].owner = job;
    draining_[static_cast<std::size_t>(id)] = 0;
    clear_idle_bit(id);
    --idle_per_partition_[static_cast<std::size_t>(
        node_partition_[static_cast<std::size_t>(id)])];
  }
  idle_count_ -= count;
  return granted;
}

void Cluster::release(JobId job, const std::vector<int>& node_ids) {
  for (int id : node_ids) {
    Node& node = mutable_node(id);
    if (node.owner != job) {
      throw std::runtime_error("Cluster: releasing node not owned by job");
    }
    node.owner = kInvalidJob;
    clear_draining(id);
    set_idle_bit(id);
    ++idle_per_partition_[static_cast<std::size_t>(
        node_partition_[static_cast<std::size_t>(id)])];
    ++idle_count_;
  }
}

void Cluster::transfer(JobId from, JobId to,
                       const std::vector<int>& node_ids) {
  for (int id : node_ids) {
    Node& node = mutable_node(id);
    if (node.owner != from) {
      throw std::runtime_error("Cluster: transferring node not owned by job");
    }
    node.owner = to;
    clear_draining(id);
  }
}

void Cluster::set_draining(const std::vector<int>& node_ids, bool draining) {
  for (int id : node_ids) {
    std::uint8_t& flag = draining_.at(static_cast<std::size_t>(id));
    if ((flag != 0) != draining) draining_count_ += draining ? 1 : -1;
    flag = draining ? 1 : 0;
  }
}

}  // namespace dmr::rms

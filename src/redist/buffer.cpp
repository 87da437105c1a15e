#include "redist/buffer.hpp"

#include <algorithm>

namespace dmr::redist {

Distribution::Distribution(const Buffer& desc, int parts)
    : layout_(desc.layout), total_(desc.count), parts_(parts) {
  if (parts <= 0) {
    throw std::invalid_argument("Distribution: non-positive parts");
  }
}

std::size_t Distribution::local_count(int rank) const {
  if (rank < 0 || rank >= parts_) {
    throw std::out_of_range("Distribution: rank out of range");
  }
  if (layout_ == Layout::Replicated) return total_;
  return rt::BlockDistribution(total_, parts_).count(rank);
}

Distribution::Place Distribution::locate(std::size_t index) const {
  if (index >= total_) {
    throw std::out_of_range("Distribution: index out of range");
  }
  // Replicated: the canonical copy is rank 0's (every rank holds the
  // same bytes).
  if (layout_ == Layout::Replicated) return {0, index};
  const rt::BlockDistribution dist(total_, parts_);
  const int rank = dist.owner(index);
  return {rank, index - dist.begin(rank)};
}

std::size_t Distribution::run_length(std::size_t index) const {
  if (index >= total_) {
    throw std::out_of_range("Distribution: index out of range");
  }
  if (layout_ == Layout::Replicated) return total_ - index;
  const rt::BlockDistribution dist(total_, parts_);
  return dist.end(dist.owner(index)) - index;
}

void Distribution::for_each_local_run(
    int rank,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (total_ == 0) return;
  if (layout_ == Layout::Replicated) {
    fn(0, total_);
    return;
  }
  const rt::BlockDistribution dist(total_, parts_);
  if (dist.count(rank) > 0) fn(dist.begin(rank), dist.count(rank));
}

std::vector<Transfer> plan_transfers(const Buffer& desc, int old_parts,
                                     int new_parts) {
  if (old_parts <= 0 || new_parts <= 0) {
    throw std::invalid_argument("plan_transfers: non-positive parts");
  }
  if (desc.count == 0) return {};

  std::vector<Transfer> plan;
  if (desc.layout == Layout::Replicated) {
    // Every new rank needs one full copy; the old ranks all hold
    // identical bytes, so source duty is spread round-robin.
    plan.reserve(static_cast<std::size_t>(new_parts));
    for (int dst = 0; dst < new_parts; ++dst) {
      plan.push_back({dst % old_parts, dst, 0, 0, desc.count});
    }
    return plan;
  }

  const Distribution src(desc, old_parts);
  const Distribution dst(desc, new_parts);
  // March the global index space in runs that stay contiguous in both
  // layouts, merging adjacent runs between the same rank pair.
  std::size_t cursor = 0;
  while (cursor < desc.count) {
    const Distribution::Place from = src.locate(cursor);
    const Distribution::Place to = dst.locate(cursor);
    const std::size_t run =
        std::min(src.run_length(cursor), dst.run_length(cursor));
    if (!plan.empty()) {
      Transfer& back = plan.back();
      if (back.src_rank == from.rank && back.dst_rank == to.rank &&
          back.src_offset + back.count == from.offset &&
          back.dst_offset + back.count == to.offset) {
        back.count += run;
        cursor += run;
        continue;
      }
    }
    plan.push_back({from.rank, to.rank, from.offset, to.offset, run});
    cursor += run;
  }
  return plan;
}

void Registry::add(Buffer desc,
                   std::function<std::span<const std::byte>()> read,
                   std::function<std::span<std::byte>(std::size_t)> resize) {
  if (desc.name.empty()) {
    throw std::invalid_argument("Registry: buffer needs a name");
  }
  if (desc.elem_size == 0) {
    throw std::invalid_argument("Registry: zero element size");
  }
  if (find(desc.name) != nullptr) {
    throw std::invalid_argument("Registry: duplicate buffer '" + desc.name +
                                "'");
  }
  bindings_.push_back(
      Binding{std::move(desc), std::move(read), std::move(resize)});
}

const Binding* Registry::find(std::string_view name) const {
  for (const Binding& binding : bindings_) {
    if (binding.desc.name == name) return &binding;
  }
  return nullptr;
}

std::size_t Registry::total_bytes() const {
  std::size_t sum = 0;
  for (const Binding& binding : bindings_) sum += binding.desc.bytes_total();
  return sum;
}

}  // namespace dmr::redist

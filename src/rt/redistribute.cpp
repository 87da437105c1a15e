#include "rt/redistribute.hpp"

#include <stdexcept>

namespace dmr::rt {

BlockDistribution::BlockDistribution(std::size_t total, int parts)
    : total_(total), parts_(parts) {
  if (parts <= 0) {
    throw std::invalid_argument("BlockDistribution: non-positive parts");
  }
}

std::size_t BlockDistribution::begin(int rank) const {
  if (rank < 0 || rank > parts_) {
    throw std::out_of_range("BlockDistribution: rank out of range");
  }
  // floor(total * rank / parts): remainder elements go to the high ranks;
  // ranks own zero elements when total < parts.
  return total_ * static_cast<std::size_t>(rank) /
         static_cast<std::size_t>(parts_);
}

int BlockDistribution::owner(std::size_t index) const {
  if (index >= total_) {
    throw std::out_of_range("BlockDistribution: index out of range");
  }
  // owner = the rank whose [begin, end) contains index; with the floor
  // formula this is ceil((index+1)*parts/total) - 1.
  const auto parts = static_cast<std::size_t>(parts_);
  const std::size_t numer = (index + 1) * parts;
  int rank = static_cast<int>((numer + total_ - 1) / total_) - 1;
  // Guard against rounding at block edges.
  while (rank > 0 && begin(rank) > index) --rank;
  while (rank + 1 < parts_ && end(rank) <= index) ++rank;
  return rank;
}

}  // namespace dmr::rt

// Block-distribution arithmetic: the balanced row-block layout shared by
// the applications, redist::Distribution's Block layout and the cost
// model's migrated fraction.  Which index ranges travel where on a
// P -> Q resize is redist::plan_transfers.
#pragma once

#include <cstddef>

namespace dmr::rt {

/// Balanced contiguous block distribution of `total` elements over
/// `parts` ranks: rank r owns [begin(r), end(r)), sizes differing by at
/// most one element (floor formula: remainder lands on the high ranks;
/// ranks may own zero elements when total < parts).
class BlockDistribution {
 public:
  BlockDistribution(std::size_t total, int parts);

  std::size_t total() const { return total_; }
  int parts() const { return parts_; }

  std::size_t begin(int rank) const;
  std::size_t end(int rank) const { return begin(rank + 1); }
  std::size_t count(int rank) const { return end(rank) - begin(rank); }

  /// Owning rank of a global element index.
  int owner(std::size_t index) const;

 private:
  std::size_t total_;
  int parts_;
};

}  // namespace dmr::rt

#include "rms/job.hpp"

#include <stdexcept>

namespace dmr::rms {

bool SubmitOrder::operator()(const Job* a, const Job* b) const {
  if (a->priority_boost != b->priority_boost) return a->priority_boost;
  if (a->submit_time != b->submit_time) return a->submit_time < b->submit_time;
  return a->id < b->id;
}

std::vector<int> expand_candidates(int current, int factor, int max_nodes) {
  if (current <= 0 || factor < 2) {
    throw std::invalid_argument("expand_candidates: bad arguments");
  }
  std::vector<int> sizes;
  for (long long size = static_cast<long long>(current) * factor;
       size <= max_nodes; size *= factor) {
    sizes.push_back(static_cast<int>(size));
  }
  return sizes;
}

std::vector<int> shrink_candidates(int current, int factor, int min_nodes) {
  if (current <= 0 || factor < 2) {
    throw std::invalid_argument("shrink_candidates: bad arguments");
  }
  std::vector<int> sizes;
  int size = current;
  while (size % factor == 0) {
    size /= factor;
    if (size < min_nodes || size < 1) break;
    sizes.push_back(size);
  }
  return sizes;
}

bool factor_reachable(int current, int target, int factor) {
  if (current <= 0 || target <= 0 || factor < 2) return false;
  if (target == current) return true;
  if (target > current) {
    long long size = current;
    while (size < target) size *= factor;
    return size == target;
  }
  int size = current;
  while (size > target && size % factor == 0) size /= factor;
  return size == target;
}

}  // namespace dmr::rms

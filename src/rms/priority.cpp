#include "rms/priority.hpp"

#include <algorithm>
#include <cmath>

namespace dmr::rms {

double job_priority(const Job& job, double now,
                    const PriorityWeights& weights) {
  const double age = std::max(0.0, now - job.submit_time);
  const double age_factor =
      weights.age_cap > 0.0 ? std::min(age, weights.age_cap) / weights.age_cap
                            : 0.0;
  const double size_factor =
      weights.cluster_size > 0
          ? static_cast<double>(job.requested_nodes) /
                static_cast<double>(weights.cluster_size)
          : 0.0;
  return weights.age_weight * age_factor + weights.size_weight * size_factor +
         weights.qos_weight * job.spec.qos;
}

bool PendingOrder::operator()(const Job* a, const Job* b) const {
  if (a->priority_boost != b->priority_boost) return a->priority_boost;
  const double pa = job_priority(*a, now, weights);
  const double pb = job_priority(*b, now, weights);
  if (pa != pb) return pa > pb;
  if (a->submit_time != b->submit_time) return a->submit_time < b->submit_time;
  return a->id < b->id;
}

bool SubmitOrder::operator()(const Job* a, const Job* b) const {
  if (a->priority_boost != b->priority_boost) return a->priority_boost;
  if (a->submit_time != b->submit_time) return a->submit_time < b->submit_time;
  return a->id < b->id;
}

bool order_fixed_by_submission(const PriorityWeights& weights) {
  return weights.size_weight == 0.0 && weights.age_weight >= 0.0 &&
         std::isfinite(weights.age_weight) && std::isfinite(weights.qos_weight);
}

void sort_pending(std::vector<const Job*>& jobs, double now,
                  const PriorityWeights& weights) {
  struct Ranked {
    const Job* job;
    double priority;
  };
  // Scratch kept across calls: a queue whose order moves with time sorts
  // at every new `now`, and a fresh decoration buffer each time is pure
  // allocator churn.
  static thread_local std::vector<Ranked> ranked;
  ranked.clear();
  ranked.reserve(jobs.size());
  for (const Job* job : jobs) {
    ranked.push_back(Ranked{job, job_priority(*job, now, weights)});
  }
  // Same key sequence as PendingOrder; the id tiebreak makes the order a
  // total one, so the cached-priority sort lands byte-identically.
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                             const Ranked& b) {
    if (a.job->priority_boost != b.job->priority_boost) {
      return a.job->priority_boost;
    }
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.job->submit_time != b.job->submit_time) {
      return a.job->submit_time < b.job->submit_time;
    }
    return a.job->id < b.job->id;
  });
  for (std::size_t i = 0; i < ranked.size(); ++i) jobs[i] = ranked[i].job;
}

}  // namespace dmr::rms

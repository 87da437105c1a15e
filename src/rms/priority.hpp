// Multifactor job priority, following Slurm's priority/multifactor plugin
// (the paper enables backfill + multifactor with default settings).
//
// priority = boost? +inf : w_age * min(age, age_cap)/age_cap
//                        + w_size * (requested/cluster_size)
//                        + w_qos * qos
//
// Algorithm 1's set_max_priority(targetJobId) maps to the boost flag,
// which sorts strictly ahead of every unboosted job.
#pragma once

#include <vector>

#include "rms/job.hpp"

namespace dmr::rms {

struct PriorityWeights {
  double age_weight = 1000.0;
  double age_cap = 7 * 24 * 3600.0;  // Slurm default PriorityMaxAge: 7 days
  double size_weight = 0.0;          // disabled by default, like our setup
  double qos_weight = 1000.0;
  int cluster_size = 1;
};

double job_priority(const Job& job, double now, const PriorityWeights& weights);

/// Strict-weak ordering for the pending queue: boosted jobs first, then
/// descending priority, then FIFO (submit time, then id) as tiebreak.
struct PendingOrder {
  double now;
  PriorityWeights weights;
  bool operator()(const Job* a, const Job* b) const;
};

/// PendingOrder without the priority term: boosted jobs first, then FIFO
/// (submit time, then id).  A total order that never moves with time.
struct SubmitOrder {
  bool operator()(const Job* a, const Job* b) const;
};

/// True when PendingOrder equals SubmitOrder at every `now` among jobs
/// that share one qos value: no size weight, and finite age and qos
/// weights with the age weight non-negative.  Then the priority is a
/// constant plus a term monotone non-decreasing in age, because
/// floating-point subtraction, `max`, `min`, division by a positive cap,
/// multiplication by a non-negative weight and adding a constant are all
/// monotone; so an earlier submission never ranks below a later one,
/// and equal priorities fall to (submit, id).  The finite weights keep
/// every priority a number (an infinite weight times a zero age factor
/// is NaN, which compares unordered).  The default weights qualify.
bool order_fixed_by_submission(const PriorityWeights& weights);

/// Sort `jobs` into PendingOrder: the reference order, and what a queue
/// whose order moves with time re-runs at each new `now`.
/// Decorate-sort-undecorate: each job's priority is computed once instead
/// of twice per comparison (the comparator's total order makes both
/// produce the identical sequence, but a sorted pending queue of P jobs
/// costs P evaluations instead of ~2 P log P).
void sort_pending(std::vector<const Job*>& jobs, double now,
                  const PriorityWeights& weights);

}  // namespace dmr::rms

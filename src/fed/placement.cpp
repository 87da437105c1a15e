#include "fed/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmr::fed {

std::string to_string(Placement placement) {
  switch (placement) {
    case Placement::RoundRobin: return "round-robin";
    case Placement::LeastLoaded: return "least-loaded";
    case Placement::BestFitSpeed: return "best-fit-speed";
    case Placement::QueueDepth: return "queue-depth";
  }
  return "unknown";
}

const std::vector<Placement>& all_placements() {
  static const std::vector<Placement> kAll = {
      Placement::RoundRobin,
      Placement::LeastLoaded,
      Placement::BestFitSpeed,
      Placement::QueueDepth,
  };
  return kAll;
}

namespace {

/// Fair rotation over the member list; ineligible members are skipped
/// without losing their turn (the cursor advances past the pick only).
class RoundRobinPolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return to_string(Placement::RoundRobin); }

  int place(const ::dmr::JobSpec&, const std::vector<ClusterStatus>& clusters,
            const std::vector<int>& eligible) override {
    const int members = static_cast<int>(clusters.size());
    for (int step = 0; step < members; ++step) {
      const int candidate = (cursor_ + step) % members;
      if (std::find(eligible.begin(), eligible.end(), candidate) !=
          eligible.end()) {
        cursor_ = (candidate + 1) % members;
        return candidate;
      }
    }
    return eligible.front();  // unreachable: eligible is non-empty
  }

 private:
  int cursor_ = 0;
};

/// Most idle nodes in the job's eligible pool; ties break on the lower
/// member index so runs stay deterministic.
class LeastLoadedPolicy final : public PlacementPolicy {
 public:
  std::string name() const override {
    return to_string(Placement::LeastLoaded);
  }

  int place(const ::dmr::JobSpec&, const std::vector<ClusterStatus>& clusters,
            const std::vector<int>& eligible) override {
    int best = eligible.front();
    for (int index : eligible) {
      if (clusters[static_cast<std::size_t>(index)].idle_nodes >
          clusters[static_cast<std::size_t>(best)].idle_nodes) {
        best = index;
      }
    }
    return best;
  }
};

/// Fast hardware first: among members that could start the job now,
/// the highest eligible-pool speed wins, with the *fewest* spare idle
/// nodes as the tie-break (a best fit that keeps large pools whole).
/// When nobody can start it now, fall back to the fastest pool overall.
class BestFitSpeedPolicy final : public PlacementPolicy {
 public:
  std::string name() const override {
    return to_string(Placement::BestFitSpeed);
  }

  int place(const ::dmr::JobSpec& spec,
            const std::vector<ClusterStatus>& clusters,
            const std::vector<int>& eligible) override {
    const auto better = [&](int a, int b, bool immediate) {
      const ClusterStatus& sa = clusters[static_cast<std::size_t>(a)];
      const ClusterStatus& sb = clusters[static_cast<std::size_t>(b)];
      if (sa.max_speed != sb.max_speed) return sa.max_speed > sb.max_speed;
      if (immediate && sa.idle_nodes != sb.idle_nodes) {
        return sa.idle_nodes < sb.idle_nodes;
      }
      return false;  // keep the lower index
    };
    int best = -1;
    for (int index : eligible) {
      if (!clusters[static_cast<std::size_t>(index)].fits_now(spec)) continue;
      if (best < 0 || better(index, best, /*immediate=*/true)) best = index;
    }
    if (best >= 0) return best;
    for (int index : eligible) {
      if (best < 0 || better(index, best, /*immediate=*/false)) best = index;
    }
    return best;
  }
};

/// Backlog balance: the fewest pending requested nodes wins (then the
/// fewest pending jobs, then the most idle nodes, then the index).
class QueueDepthPolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return to_string(Placement::QueueDepth); }

  int place(const ::dmr::JobSpec&, const std::vector<ClusterStatus>& clusters,
            const std::vector<int>& eligible) override {
    const auto better = [&](int a, int b) {
      const ClusterStatus& sa = clusters[static_cast<std::size_t>(a)];
      const ClusterStatus& sb = clusters[static_cast<std::size_t>(b)];
      if (sa.pending_nodes != sb.pending_nodes) {
        return sa.pending_nodes < sb.pending_nodes;
      }
      if (sa.pending_jobs != sb.pending_jobs) {
        return sa.pending_jobs < sb.pending_jobs;
      }
      if (sa.idle_nodes != sb.idle_nodes) return sa.idle_nodes > sb.idle_nodes;
      return false;
    };
    int best = eligible.front();
    for (int index : eligible) {
      if (better(index, best)) best = index;
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<PlacementPolicy> make_placement(Placement kind) {
  switch (kind) {
    case Placement::RoundRobin: return std::make_unique<RoundRobinPolicy>();
    case Placement::LeastLoaded: return std::make_unique<LeastLoadedPolicy>();
    case Placement::BestFitSpeed:
      return std::make_unique<BestFitSpeedPolicy>();
    case Placement::QueueDepth: return std::make_unique<QueueDepthPolicy>();
  }
  throw std::invalid_argument("fed: unknown placement kind");
}

}  // namespace dmr::fed

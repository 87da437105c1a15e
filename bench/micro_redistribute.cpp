// Micro-benchmark of dmr::redist's chunked movement: plan + execute
// time across the canonical resize shapes (grow x2, shrink x2,
// prime <-> prime), with drv::CostModel's nominal movement printed
// beside each measurement, one JSON object per line ("bench JSON") so
// CI and notebooks can ingest the results.  After each timed move every
// byte every new rank holds is checked against the old ranks' fill;
// a failed rank or a wrong byte makes the run exit 1.
//
// Usage:  micro_redistribute [elements=N] [reps=N] [smoke]
//   smoke        one repetition over a small array (CI mode)
//   elements=N   doubles in the data buffer (default 1M)
//   reps=N       repetitions per shape (default 3)
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dmr/malleable.hpp"
#include "dmr/redist.hpp"
#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;
using util::wall_seconds;

struct Shape {
  const char* kind;
  int from;
  int to;
};

constexpr Shape kShapes[] = {
    {"grow_x2", 8, 16},
    {"shrink_x2", 16, 8},
    {"prime_grow", 7, 13},
    {"prime_shrink", 13, 7},
};

/// The buffer set under test: a Block array of doubles (the workload),
/// a Block array of ints and a Replicated header, so every layout and a
/// multi-buffer registry are exercised.
struct BenchState {
  std::vector<double> data;
  std::vector<int> tags;
  std::vector<double> header;
  redist::Registry registry;

  explicit BenchState(std::size_t elements) {
    registry.add_block("data", data, elements);
    registry.add_block("tags", tags, elements / 2 + 1);
    registry.add_replicated("header", header, 16);
  }

  /// Byte of buffer `i` at global byte position `at`: the same on every
  /// rank of either process set, so a receiver can check what arrived.
  static std::byte pattern(std::size_t i, std::size_t at) {
    return static_cast<std::byte>((i * 89 + at * 13 + 7) % 251);
  }

  void fill(int rank, int parts) {
    for (std::size_t i = 0; i < registry.size(); ++i) {
      redist::Binding& binding = registry.at(i);
      const redist::Distribution dist(binding.desc, parts);
      const auto out = binding.resize(dist.local_count(rank));
      const std::size_t elem = binding.desc.elem_size;
      std::size_t local = 0;
      dist.for_each_local_run(rank, [&](std::size_t global, std::size_t n) {
        for (std::size_t b = 0; b < n * elem; ++b) {
          out[local + b] = pattern(i, global * elem + b);
        }
        local += n * elem;
      });
    }
  }

  /// Buffers holding a byte other than what fill(rank, parts) writes, a
  /// missing or surplus byte included; prints one line for each.
  int mismatches(int rank, int parts) const {
    int buffers = 0;
    for (std::size_t i = 0; i < registry.size(); ++i) {
      const redist::Binding& binding = registry.at(i);
      const redist::Distribution dist(binding.desc, parts);
      const auto held = binding.read();
      const std::size_t elem = binding.desc.elem_size;
      const std::size_t want = dist.local_count(rank) * elem;
      std::size_t wrong = held.size() > want ? held.size() - want
                                             : want - held.size();
      std::size_t local = 0;
      dist.for_each_local_run(rank, [&](std::size_t global, std::size_t n) {
        for (std::size_t b = 0; b < n * elem && local + b < held.size(); ++b) {
          if (held[local + b] != pattern(i, global * elem + b)) ++wrong;
        }
        local += n * elem;
      });
      if (wrong > 0) {
        std::fprintf(stderr, "rank %d buffer %s: %zu of %zu bytes wrong\n",
                     rank, binding.desc.name.c_str(), wrong, want);
        ++buffers;
      }
    }
    return buffers;
  }
};

struct Measurement {
  double plan_seconds = 0.0;
  double exec_seconds = 0.0;
  std::size_t bytes_moved = 0;
  std::size_t bytes_total = 0;
  int transfers = 0;
  int failures = 0;
};

Measurement run_once(const Shape& shape, std::size_t elements) {
  Measurement m;
  // Plan cost, measured separately from execution.
  {
    const BenchState prototype(elements);
    const double start = wall_seconds();
    std::size_t planned = 0;
    for (std::size_t i = 0; i < prototype.registry.size(); ++i) {
      planned += redist::plan_transfers(prototype.registry.at(i).desc,
                                        shape.from, shape.to)
                     .size();
    }
    m.plan_seconds = wall_seconds() - start;
    if (planned == 0) std::fprintf(stderr, "warning: empty plan\n");
  }

  std::mutex mu;
  redist::Report recv_total;
  // One slot per new rank, kept past the timed section for the check.
  std::vector<std::unique_ptr<BenchState>> received(
      static_cast<std::size_t>(shape.to));
  smpi::Universe universe;
  const double start = wall_seconds();
  universe.launch("old", shape.from, [&](smpi::Context& ctx) {
    BenchState state(elements);
    state.fill(ctx.rank(), shape.from);
    const auto inter = ctx.spawn(
        ctx.world(), shape.to, [&](smpi::Context& child) {
          auto& fresh = received[static_cast<std::size_t>(child.rank())];
          fresh = std::make_unique<BenchState>(elements);
          const redist::Endpoint endpoint{&*child.parent(), child.rank(),
                                          shape.from, shape.to};
          const redist::Report report =
              redist::recv_buffers(endpoint, fresh->registry);
          std::lock_guard<std::mutex> lock(mu);
          // Concurrent ranks: sum bytes, keep the slowest wall time.
          recv_total.merge_concurrent(report);
        });
    const redist::Endpoint endpoint{&inter, ctx.rank(), shape.from,
                                    shape.to};
    (void)redist::send_buffers(endpoint, state.registry);
  });
  universe.await_all();
  m.exec_seconds = wall_seconds() - start;
  for (const auto& failure : universe.failures()) {
    std::fprintf(stderr, "rank failure: %s\n", failure.c_str());
    ++m.failures;
  }
  // Every byte of every buffer on every new rank, the replicated header
  // included, must be where the old ranks' fill put it.
  for (int rank = 0; rank < shape.to; ++rank) {
    const auto& fresh = received[static_cast<std::size_t>(rank)];
    if (fresh != nullptr) m.failures += fresh->mismatches(rank, shape.to);
  }
  m.bytes_moved = recv_total.bytes_moved;
  m.bytes_total = recv_total.bytes_total;
  m.transfers = recv_total.transfers;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t elements = std::size_t(1) << 20;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    int count = 0;
    if (std::strcmp(argv[i], "smoke") == 0) {
      reps = 1;
      elements = 1 << 14;
    } else if (util::parse_count_arg(argv[i], "elements", count)) {
      elements = static_cast<std::size_t>(count);
    } else if (util::parse_count_arg(argv[i], "reps", reps)) {
      continue;
    } else {
      std::fprintf(stderr,
                   "usage: %s [elements=N] [reps=N] [smoke]\n", argv[0]);
      return 2;
    }
  }

  const drv::CostModel model;
  int failures = 0;
  for (const Shape& shape : kShapes) {
    for (int rep = 0; rep < reps; ++rep) {
      const Measurement m = run_once(shape, elements);
      failures += m.failures;
      const double model_seconds =
          model.movement(m.bytes_total, shape.from, shape.to).seconds;
      const double throughput =
          m.exec_seconds > 0.0
              ? static_cast<double>(m.bytes_moved) / m.exec_seconds / 1e6
              : 0.0;
      std::printf(
          "{\"bench\":\"micro_redistribute\",\"shape\":\"%s\","
          "\"old\":%d,\"new\":%d,\"elements\":%zu,\"rep\":%d,"
          "\"bytes_total\":%zu,\"bytes_moved\":%zu,\"transfers\":%d,"
          "\"plan_seconds\":%.6f,\"exec_seconds\":%.6f,"
          "\"throughput_mbps\":%.2f,\"model_seconds\":%.6f}\n",
          shape.kind, shape.from, shape.to, elements, rep, m.bytes_total,
          m.bytes_moved, m.transfers, m.plan_seconds, m.exec_seconds,
          throughput, model_seconds);
      std::fflush(stdout);
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d failure(s): failed ranks or wrong buffers\n",
                 failures);
    return 1;
  }
  return 0;
}

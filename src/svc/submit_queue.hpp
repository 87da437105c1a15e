// Bounded SPSC submission ring between producers of jobs and the
// resident simulator service.
//
// The cpp-ipc `circ_elem_array` idiom: a fixed-capacity power-of-two
// ring whose slots carry their own sequence number.  A slot is writable
// when its sequence equals the producer's head, readable when it equals
// the consumer's tail + 1; publishing advances the slot sequence, and a
// consumed slot is re-armed one full lap ahead.  The two index counters
// are each owned by exactly one side (single producer, single consumer),
// so the only shared state is the per-slot sequence — one
// acquire/release pair per transfer, no locks, no CAS.
//
// Backpressure is explicit: push() on a full ring returns
// PushResult::QueueFull (and counts the rejection) instead of blocking
// or silently dropping.  The producer decides whether to retry, shed, or
// slow down — the contract an always-on ingest front-end needs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmr::svc {

/// One job submission in the shared workload model: what a client would
/// put on the wire, not a driver-internal plan.
struct JobRequest {
  /// Producer-chosen id, echoed in the service's submission log.
  long long tag = 0;
  /// Simulated arrival instant; must not precede the service clock at
  /// pump time (stale submissions are rejected and counted).
  double arrival = 0.0;
  int nodes = 1;
  /// Malleability bounds ([nodes, nodes] = rigid).
  int min_nodes = 1;
  int max_nodes = 1;
  /// Runtime at the submit size (seconds).
  double runtime = 0.0;
  /// Reconfiguring-point steps the job runs.
  int steps = 25;
  bool flexible = true;
  bool moldable = false;
  /// Bytes a resize redistributes.
  std::size_t state_bytes = std::size_t(1) << 28;
  /// Partition constraint (empty = anywhere).
  std::string partition;
};

enum class PushResult {
  Ok,
  /// The ring is full: explicit backpressure, nothing was enqueued.
  QueueFull,
};

class SubmitQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SubmitQueue(std::size_t capacity);
  SubmitQueue(const SubmitQueue&) = delete;
  SubmitQueue& operator=(const SubmitQueue&) = delete;

  /// Producer side.  QueueFull when no slot is free.
  PushResult push(JobRequest request);

  /// Consumer side.  False when the ring is empty.
  bool pop(JobRequest& out);

  std::size_t capacity() const { return slots_.size(); }
  /// Unconsumed entries (a racy snapshot when called cross-thread).
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Pushes refused because the ring was full (monotone; readable from
  /// either side).
  std::uint64_t rejected_full() const {
    return rejected_full_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// Ticket protocol: == index lap count when writable, == index lap
    /// count + 1 when readable (Vyukov / cpp-ipc circ_elem_array).
    std::atomic<std::uint64_t> sequence{0};
    JobRequest value;
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  /// Producer-owned / consumer-owned cursors.  Atomic only so size()
  /// may be sampled from the other side; each is written by one thread.
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
};

}  // namespace dmr::svc

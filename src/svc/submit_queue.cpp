#include "svc/submit_queue.hpp"

#include <stdexcept>
#include <utility>

namespace dmr::svc {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SubmitQueue::SubmitQueue(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SubmitQueue: zero capacity");
  }
  if (capacity > (std::size_t(1) << 20)) {
    throw std::invalid_argument("SubmitQueue: capacity above 2^20");
  }
  slots_ = std::vector<Slot>(round_up_pow2(capacity));
  mask_ = slots_.size() - 1;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

PushResult SubmitQueue::push(JobRequest request) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[head & mask_];
  // The slot is free once the consumer re-armed it to this lap's ticket.
  if (slot.sequence.load(std::memory_order_acquire) != head) {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    return PushResult::QueueFull;
  }
  slot.value = std::move(request);
  slot.sequence.store(head + 1, std::memory_order_release);
  head_.store(head + 1, std::memory_order_relaxed);
  return PushResult::Ok;
}

bool SubmitQueue::pop(JobRequest& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  Slot& slot = slots_[tail & mask_];
  if (slot.sequence.load(std::memory_order_acquire) != tail + 1) {
    return false;  // nothing published yet
  }
  out = std::move(slot.value);
  // Re-arm the slot for the producer's next lap over the ring.
  slot.sequence.store(tail + slots_.size(), std::memory_order_release);
  tail_.store(tail + 1, std::memory_order_relaxed);
  return true;
}

std::size_t SubmitQueue::size() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
}

}  // namespace dmr::svc

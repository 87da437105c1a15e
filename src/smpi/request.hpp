// Nonblocking operation handles (MPI_Request analogue).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "smpi/types.hpp"

namespace dmr::smpi {

namespace detail {
struct RequestState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::vector<std::byte> data;  // the received payload

  void complete(std::vector<std::byte> payload) {
    {
      std::lock_guard<std::mutex> lock(mu);
      data = std::move(payload);
      done = true;
    }
    cv.notify_all();
  }
};
}  // namespace detail

/// Handle for an in-flight irecv.  Copyable (shared state); take_data()
/// blocks until completion and moves the payload out.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  bool test() const {
    if (!state_) return true;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  /// Wait for the matching send, then move the received payload out.
  std::vector<std::byte> take_data() {
    if (!state_) throw SmpiError("Request::take_data on empty request");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    return std::move(state_->data);
  }

 private:
  std::shared_ptr<detail::RequestState> state_;
};

}  // namespace dmr::smpi

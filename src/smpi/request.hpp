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
  Status status;
  std::vector<std::byte> data;  // payload for receives

  void complete(Status st, std::vector<std::byte> payload) {
    {
      std::lock_guard<std::mutex> lock(mu);
      status = st;
      data = std::move(payload);
      done = true;
    }
    cv.notify_all();
  }
};
}  // namespace detail

/// Handle for an in-flight isend/irecv.  Copyable (shared state); wait()
/// blocks until completion and returns the Status.  For receives, the
/// payload is retrieved with take_data().
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  /// An already-complete request (used for buffered isend).
  static Request completed(Status st) {
    auto state = std::make_shared<detail::RequestState>();
    state->status = st;
    state->done = true;
    return Request(std::move(state));
  }

  bool test() const {
    if (!state_) return true;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  Status wait() {
    if (!state_) throw SmpiError("Request::wait on empty request");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    return state_->status;
  }

  /// Move the received payload out (receives only; empty for sends).
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

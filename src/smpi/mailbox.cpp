#include "smpi/mailbox.hpp"

#include <algorithm>

namespace dmr::smpi {

void Mailbox::deposit(Envelope envelope) {
  std::shared_ptr<detail::RequestState> to_complete;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (matches(envelope, it->source, it->tag)) {
        to_complete = it->request;
        pending_.erase(it);
        break;
      }
    }
    if (!to_complete) {
      queue_.push_back(std::move(envelope));
      cv_.notify_all();
      return;
    }
  }
  to_complete->complete(std::move(envelope.data));
}

Envelope Mailbox::receive(int source, int tag) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [&](const Envelope& e) { return matches(e, source, tag); });
    if (it != queue_.end()) {
      Envelope envelope = std::move(*it);
      queue_.erase(it);
      return envelope;
    }
    cv_.wait(lock);
  }
}

Request Mailbox::post_receive(int source, int tag) {
  auto state = std::make_shared<detail::RequestState>();
  Envelope matched;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [&](const Envelope& e) { return matches(e, source, tag); });
    if (it != queue_.end()) {
      matched = std::move(*it);
      queue_.erase(it);
      found = true;
    } else {
      pending_.push_back(Pending{source, tag, state});
    }
  }
  if (found) state->complete(std::move(matched.data));
  return Request(std::move(state));
}

}  // namespace dmr::smpi

#include "smpi/comm.hpp"

namespace dmr::smpi {
namespace detail {

std::shared_ptr<CommState> CommState::make_intra(std::string name, int size) {
  if (size <= 0) throw SmpiError("CommState: non-positive group size");
  auto state = std::make_shared<CommState>();
  state->name = std::move(name);
  state->side[0].reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    state->side[0].push_back(std::make_unique<Mailbox>());
  }
  return state;
}

std::shared_ptr<CommState> CommState::make_inter(std::string name,
                                                 int local_size,
                                                 int remote_size) {
  if (local_size <= 0 || remote_size <= 0) {
    throw SmpiError("CommState: non-positive inter group size");
  }
  auto state = std::make_shared<CommState>();
  state->name = std::move(name);
  for (int r = 0; r < local_size; ++r) {
    state->side[0].push_back(std::make_unique<Mailbox>());
  }
  for (int r = 0; r < remote_size; ++r) {
    state->side[1].push_back(std::make_unique<Mailbox>());
  }
  return state;
}

}  // namespace detail

Mailbox& Comm::target_mailbox(int dest) const {
  const int target_side = is_inter() ? 1 - side_ : side_;
  auto& group = state_->side[target_side];
  if (dest < 0 || dest >= static_cast<int>(group.size())) {
    throw RankError("destination rank out of range for " + state_->name);
  }
  return *group[static_cast<std::size_t>(dest)];
}

Mailbox& Comm::receiving_mailbox(int source) const {
  if (source != kAnySource) {
    const int src_side = is_inter() ? 1 - side_ : side_;
    const auto group_size = static_cast<int>(state_->side[src_side].size());
    if (source < 0 || source >= group_size) {
      throw RankError("source rank out of range for " + state_->name);
    }
  }
  return *state_->side[side_][static_cast<std::size_t>(rank_)];
}

void Comm::check_intra(const char* what) const {
  if (is_inter()) {
    throw SmpiError(std::string(what) +
                    ": collective not supported on inter-communicator");
  }
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> data) const {
  Envelope envelope;
  envelope.source = rank_;
  envelope.tag = tag;
  envelope.data.assign(data.begin(), data.end());
  target_mailbox(dest).deposit(std::move(envelope));
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) const {
  return receiving_mailbox(source).receive(source, tag).data;
}

Request Comm::irecv_bytes(int source, int tag) const {
  return receiving_mailbox(source).post_receive(source, tag);
}

void Comm::barrier() const {
  check_intra("barrier");
  auto& state = *state_;
  std::unique_lock<std::mutex> lock(state.coll_mu);
  const int group = side_;
  const auto generation = state.barrier_generation[group];
  if (++state.barrier_waiting[group] == size()) {
    state.barrier_waiting[group] = 0;
    ++state.barrier_generation[group];
    state.coll_cv.notify_all();
  } else {
    state.coll_cv.wait(lock, [&] {
      return state.barrier_generation[group] != generation;
    });
  }
}

}  // namespace dmr::smpi

#include "smpi/universe.hpp"

#include <sstream>

namespace dmr::smpi {

const std::vector<std::string>& Context::hosts() const {
  return set_->hosts();
}

Comm Context::spawn(const Comm& comm, int nprocs, Entry entry,
                    std::vector<std::string> hosts) {
  if (nprocs <= 0) throw SmpiError("spawn: non-positive child count");
  auto comm_state = comm.state();
  if (comm.rank() == 0) {
    // Root creates the child set and the connecting inter-communicator,
    // then publishes the shared state for its siblings.
    std::ostringstream name;
    name << set_->name() << "/spawn" << universe_->spawn_count();
    auto inter = detail::CommState::make_inter(name.str() + ":inter",
                                               comm.size(), nprocs);
    universe_->spawn_count_.fetch_add(1);
    universe_->launch_internal(name.str(), nprocs, std::move(entry),
                               std::move(hosts), inter);
    {
      std::lock_guard<std::mutex> lock(comm_state->coll_mu);
      comm_state->spawn_slot = inter;
    }
  }
  comm.barrier();
  std::shared_ptr<detail::CommState> inter_state;
  {
    std::lock_guard<std::mutex> lock(comm_state->coll_mu);
    inter_state =
        std::static_pointer_cast<detail::CommState>(comm_state->spawn_slot);
  }
  comm.barrier();
  if (comm.rank() == 0) {
    std::lock_guard<std::mutex> lock(comm_state->coll_mu);
    comm_state->spawn_slot.reset();
  }
  if (!inter_state) throw SmpiError("spawn: rendezvous lost the child state");
  return Comm(std::move(inter_state), /*side=*/0, comm.rank());
}

void ProcessSet::join() {
  if (joined_) return;
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  joined_ = true;
}

Universe::~Universe() { await_all(); }

ProcessSet& Universe::launch(std::string name, int nprocs, Entry entry,
                             std::vector<std::string> hosts) {
  return launch_internal(std::move(name), nprocs, std::move(entry),
                         std::move(hosts), nullptr);
}

ProcessSet& Universe::launch_internal(
    std::string name, int nprocs, Entry entry, std::vector<std::string> hosts,
    std::shared_ptr<detail::CommState> parent_state) {
  if (nprocs <= 0) throw SmpiError("launch: non-positive rank count");
  if (hosts.empty()) {
    hosts.reserve(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      hosts.push_back("vnode" + std::to_string(r));
    }
  }
  auto set = std::make_unique<ProcessSet>();
  ProcessSet* set_ptr = set.get();
  set->name_ = std::move(name);
  set->size_ = nprocs;
  set->hosts_ = std::move(hosts);
  set->world_state_ =
      detail::CommState::make_intra(set->name_ + ":world", nprocs);
  total_ranks_.fetch_add(nprocs);

  auto shared_entry = std::make_shared<Entry>(std::move(entry));
  set->threads_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    set->threads_.emplace_back([this, set_ptr, shared_entry, r,
                                parent_state] {
      Comm world(set_ptr->world_state_, /*side=*/0, r);
      std::optional<Comm> parent;
      if (parent_state) parent = Comm(parent_state, /*side=*/1, r);
      Context context(this, set_ptr, std::move(world), std::move(parent));
      try {
        (*shared_entry)(context);
      } catch (const std::exception& ex) {
        std::ostringstream msg;
        msg << set_ptr->name_ << " rank " << r << ": " << ex.what();
        std::lock_guard<std::mutex> lock(mu_);
        failures_.push_back(msg.str());
      }
    });
  }

  std::lock_guard<std::mutex> lock(mu_);
  sets_.push_back(std::move(set));
  return *set_ptr;
}

void Universe::await_all() {
  // Joining a set can trigger spawns that append new sets; iterate by
  // index until the list stabilizes.
  for (std::size_t i = 0;; ++i) {
    ProcessSet* set = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (i >= sets_.size()) break;
      set = sets_[i].get();
    }
    set->join();
  }
}

std::vector<std::string> Universe::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

}  // namespace dmr::smpi

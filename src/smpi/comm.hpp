// Communicators: per-rank views onto shared mailbox state.
//
// An intra-communicator connects one group of ranks; an inter-communicator
// (produced by spawn) connects a local and a remote group, mirroring the
// MPI_Comm_spawn parent/child topology the DMR mechanism relies on.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "smpi/mailbox.hpp"
#include "smpi/request.hpp"
#include "smpi/types.hpp"

namespace dmr::smpi {

namespace detail {
/// Shared state of a communicator: mailboxes for both group sides (side 1
/// is empty for intra-communicators) plus collective bookkeeping.
struct CommState {
  std::string name;
  std::vector<std::unique_ptr<Mailbox>> side[2];

  // Barrier (intracomm only, side 0 group or the owning side's group).
  std::mutex coll_mu;
  std::condition_variable coll_cv;
  int barrier_waiting[2] = {0, 0};
  std::uint64_t barrier_generation[2] = {0, 0};

  // Spawn rendezvous: the root publishes the child communicator here for
  // its siblings to pick up between two barriers.
  std::shared_ptr<void> spawn_slot;

  static std::shared_ptr<CommState> make_intra(std::string name, int size);
  static std::shared_ptr<CommState> make_inter(std::string name,
                                               int local_size,
                                               int remote_size);
};
}  // namespace detail

/// Per-rank handle onto a communicator.  Cheap to copy.
class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<detail::CommState> state, int side, int rank)
      : state_(std::move(state)), side_(side), rank_(rank) {}

  /// Rank within the local group.
  int rank() const { return rank_; }
  /// Size of the local group.
  int size() const { return static_cast<int>(state_->side[side_].size()); }
  /// True when this is an inter-communicator (spawn parent/child link).
  bool is_inter() const { return !state_->side[1 - side_].empty(); }
  /// Size of the remote group (inter-communicators only).
  int remote_size() const {
    return static_cast<int>(state_->side[1 - side_].size());
  }

  // --- point-to-point -----------------------------------------------------

  /// Blocking standard send (buffered: copies and returns).
  void send_bytes(int dest, int tag, std::span<const std::byte> data) const;
  /// Blocking receive; returns the payload.
  std::vector<std::byte> recv_bytes(int source, int tag) const;
  /// Nonblocking receive; the Request's take_data() yields the payload.
  Request irecv_bytes(int source, int tag) const;

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) const {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto raw = recv_bytes(source, tag);
    if (raw.size() % sizeof(T) != 0) {
      throw SmpiError("recv: payload size not a multiple of element size");
    }
    std::vector<T> out(raw.size() / sizeof(T));
    // Guard the empty payload: memcpy's pointer arguments are declared
    // non-null, and a zero-length message carries a null data().
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <typename T>
  T recv_value(int source, int tag) const {
    const auto values = recv<T>(source, tag);
    if (values.size() != 1) {
      throw SmpiError("recv_value: expected exactly one element");
    }
    return values.front();
  }

  // --- collectives (intra-communicators only) ------------------------------

  void barrier() const;

  /// Broadcast `data` from `root`; non-root ranks resize to fit.
  template <typename T>
  void bcast(std::vector<T>& data, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check_intra("bcast");
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        send(r, kTagBcast, std::span<const T>(data.data(), data.size()));
      }
    } else {
      data = recv<T>(root, kTagBcast);
    }
  }

  /// Reduce with a binary fold; result valid at root only.
  template <typename T, typename Op>
  T reduce(const T& value, Op op, int root) const {
    check_intra("reduce");
    if (rank_ != root) {
      send_value(root, kTagReduce, value);
      return value;
    }
    T accumulator = value;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      accumulator = op(accumulator, recv_value<T>(r, kTagReduce));
    }
    return accumulator;
  }

  template <typename T, typename Op>
  T allreduce(const T& value, Op op) const {
    std::vector<T> result{reduce(value, op, 0)};
    bcast(result, 0);
    return result.front();
  }

  template <typename T>
  T allreduce_sum(const T& value) const {
    return allreduce(value, [](const T& a, const T& b) { return a + b; });
  }

  /// Gather variable-length contributions; root receives them ordered by
  /// rank in `out` (others get an empty vector).  Returns per-rank counts
  /// at root.
  template <typename T>
  std::vector<std::size_t> gatherv(std::span<const T> mine,
                                   std::vector<T>& out, int root) const {
    check_intra("gatherv");
    std::vector<std::size_t> counts;
    if (rank_ != root) {
      send(root, kTagGather, mine);
      out.clear();
      return counts;
    }
    out.clear();
    counts.assign(static_cast<std::size_t>(size()), 0);
    std::vector<std::vector<T>> parts(static_cast<std::size_t>(size()));
    parts[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      parts[static_cast<std::size_t>(r)] = recv<T>(r, kTagGather);
    }
    for (int r = 0; r < size(); ++r) {
      const auto& part = parts[static_cast<std::size_t>(r)];
      counts[static_cast<std::size_t>(r)] = part.size();
      out.insert(out.end(), part.begin(), part.end());
    }
    return counts;
  }

  /// All ranks end up with the rank-ordered concatenation.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> mine) const {
    std::vector<T> out;
    gatherv(mine, out, 0);
    bcast(out, 0);
    return out;
  }

  /// Root scatters `chunks[r]` to rank r; everyone returns their chunk.
  template <typename T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& chunks,
                          int root) const {
    check_intra("scatterv");
    if (rank_ == root) {
      if (chunks.size() != static_cast<std::size_t>(size())) {
        throw SmpiError("scatterv: chunk count != communicator size");
      }
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        const auto& chunk = chunks[static_cast<std::size_t>(r)];
        send(r, kTagScatter,
             std::span<const T>(chunk.data(), chunk.size()));
      }
      return chunks[static_cast<std::size_t>(root)];
    }
    return recv<T>(root, kTagScatter);
  }

  // --- internal ------------------------------------------------------------
  std::shared_ptr<detail::CommState> state() const { return state_; }
  int side() const { return side_; }

 private:
  friend class Universe;
  Mailbox& target_mailbox(int dest) const;
  /// This rank's mailbox, once `source` is checked against the sending
  /// group (kAnySource passes).
  Mailbox& receiving_mailbox(int source) const;
  void check_intra(const char* what) const;

  std::shared_ptr<detail::CommState> state_;
  int side_ = 0;
  int rank_ = 0;
};

}  // namespace dmr::smpi

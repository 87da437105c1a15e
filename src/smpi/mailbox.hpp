// Per-rank mailbox with MPI-style (source, tag) matching.
//
// One mailbox per (communicator, group side, rank).  Senders deposit
// envelopes; receivers either block or post a pending receive that the
// next matching deposit completes.  Matching follows MPI ordering rules:
// envelopes from the same source with the same tag are matched FIFO, and
// posted receives are serviced in posting order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "smpi/request.hpp"
#include "smpi/types.hpp"

namespace dmr::smpi {

struct Envelope {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> data;
};

class Mailbox {
 public:
  /// Deliver an envelope: completes the oldest matching posted receive if
  /// any, otherwise queues the envelope.
  void deposit(Envelope envelope);

  /// Blocking receive: returns the first queued envelope matching
  /// (source, tag), waiting if none is available yet.
  Envelope receive(int source, int tag);

  /// Nonblocking receive: returns a Request completed by a matching
  /// deposit (or immediately if a queued envelope already matches).
  Request post_receive(int source, int tag);

 private:
  struct Pending {
    int source;
    int tag;
    std::shared_ptr<detail::RequestState> request;
  };

  static bool matches(const Envelope& envelope, int source, int tag) {
    return (source == kAnySource || source == envelope.source) &&
           (tag == kAnyTag || tag == envelope.tag);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;
  std::list<Pending> pending_;
};

}  // namespace dmr::smpi

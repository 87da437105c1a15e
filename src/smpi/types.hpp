// Common types for the simulated message-passing substrate.
//
// dmr::smpi is an in-process MPI subset: ranks are threads, communicators
// carry per-rank mailboxes with (source, tag) matching, and comm_spawn
// creates a fresh rank set connected through an inter-communicator — the
// exact surface the DMR malleability mechanism needs from MPI.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dmr::smpi {

/// Wildcards mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Tags below this value are reserved for internal collective traffic.
constexpr int kReservedTagBase = -1000;
constexpr int kTagBcast = kReservedTagBase - 2;
constexpr int kTagReduce = kReservedTagBase - 3;
constexpr int kTagGather = kReservedTagBase - 4;
constexpr int kTagScatter = kReservedTagBase - 5;

class SmpiError : public std::runtime_error {
 public:
  explicit SmpiError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when p2p arguments are out of range for the communicator.
class RankError : public SmpiError {
 public:
  explicit RankError(const std::string& what) : SmpiError(what) {}
};

}  // namespace dmr::smpi

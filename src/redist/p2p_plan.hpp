// P2pPlan: the overlap-plan executor over multi-buffer registries and
// every Layout.  Each transfer of plan_transfers becomes exactly one
// message; every element of every Block / BlockCyclic buffer crosses the
// link exactly once.
#pragma once

#include "redist/strategy.hpp"

namespace dmr::redist {

class P2pPlan final : public Strategy {
 public:
  std::string name() const override { return "p2p"; }
  Report send(const Endpoint& endpoint, const Registry& registry) override;
  Report recv(const Endpoint& endpoint, Registry& registry) override;
};

}  // namespace dmr::redist

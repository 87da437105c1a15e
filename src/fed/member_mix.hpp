// Configurable federation member-mix generator.
//
// The sweep (and anything else that builds N-member federations) used to
// hard-code a 3-entry cycling cluster spec, which cannot express a
// realistic fleet ("16 thin members plus 8 fat slow ones").  A MemberMix
// is parsed from a compact spec string:
//
//   spec   := group (',' group)*
//   group  := COUNT 'x' sizes option*
//   option := ':speed=' FLOAT        homogeneous-partition speed factor
//           | ':name='  IDENT        member base name (default m<group>)
//   sizes  := INT                    homogeneous member of INT nodes
//           | part ('+' part)*       heterogeneous partitions
//   part   := IDENT '=' INT ['@' FLOAT]    name=nodes[@speed]
//
// COUNT and INT are decimal digits in [1, 1e6] (no sign, no spaces);
// FLOAT is a finite speed factor in [0.01, 100].
//
// Examples:
//   "16x64,8x128:speed=0.6"     16 members of 64 nodes, 8 slow 128-node
//   "1x24:name=alpha,1xfast=16@1.25+slow=8@0.6:name=beta"
//
// Groups lay out in order (group 0's members first).  Asking for more
// members than the mix defines cycles through it again with numbered
// names, so a small mix still scales to --clusters 64.
#pragma once

#include <string>
#include <vector>

#include "fed/federation.hpp"
#include "rms/cluster.hpp"

namespace dmr::fed {

/// One parsed group: `count` identical members.
struct MemberGroup {
  int count = 1;
  /// Base member name; flattened members are numbered from it.
  std::string name;
  /// Homogeneous shorthand (partitions empty): nodes at `speed`.
  int nodes = 0;
  double speed = 1.0;
  /// Heterogeneous layout; overrides `nodes` when non-empty.
  std::vector<rms::Partition> partitions;
};

struct MemberMix {
  std::vector<MemberGroup> groups;
  /// Members one full pass over the mix defines.
  int total() const;
};

/// The mix the sweep uses when --members is not given: the historical
/// alpha / beta / gamma cycle (24-node homogeneous, fast+slow
/// heterogeneous, small slow member).
extern const char* const kDefaultMemberMix;

/// Parse a mix spec; throws std::invalid_argument naming the offending
/// group and token on malformed input.
MemberMix parse_member_mix(const std::string& spec);

/// ClusterSpec for federation member `index` under `mix`.  Indices past
/// total() cycle through the mix; every generated name is unique
/// (single-count groups go name, name2, name3... — the historical
/// suffix scheme — and multi-count groups number from name1 up).
ClusterSpec member_spec(const MemberMix& mix, int index);

}  // namespace dmr::fed

#include "fed/member_mix.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace dmr::fed {

const char* const kDefaultMemberMix =
    "1x24:name=alpha,1xfast=16@1.25+slow=8@0.6:name=beta,"
    "1xg=12@0.8:name=gamma";

int MemberMix::total() const {
  int sum = 0;
  for (const MemberGroup& group : groups) sum += group.count;
  return sum;
}

namespace {

[[noreturn]] void fail(std::size_t group, const std::string& what,
                       const std::string& token) {
  throw std::invalid_argument("member mix: group " + std::to_string(group) +
                              ": " + what + " in '" + token + "'");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) return parts;
    start = end + 1;
  }
}

/// A count in [1, 1e6]: digits only, no sign, no whitespace.
bool parse_int(const std::string& text, int& out) {
  const char* last = text.data() + text.size();
  int value = 0;
  const auto [stop, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || stop != last || value <= 0 || value > 1'000'000) {
    return false;
  }
  out = value;
  return true;
}

/// Speed factor bounds: a near-zero speed stretches runtimes past any
/// finite simulated time, an infinite one collapses them to zero.
constexpr double kMinSpeed = 0.01;
constexpr double kMaxSpeed = 100.0;

bool parse_speed(const std::string& text, double& out) {
  const char* last = text.data() + text.size();
  double value = 0.0;
  const auto [stop, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || stop != last ||
      !(value >= kMinSpeed && value <= kMaxSpeed)) {
    return false;
  }
  out = value;
  return true;
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

/// "name=nodes[@speed]" -> Partition.
rms::Partition parse_partition(std::size_t index, const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) fail(index, "partition without '='", token);
  rms::Partition part;
  part.name = token.substr(0, eq);
  if (!valid_name(part.name)) fail(index, "bad partition name", token);
  std::string rest = token.substr(eq + 1);
  const std::size_t at = rest.find('@');
  if (at != std::string::npos) {
    if (!parse_speed(rest.substr(at + 1), part.speed)) {
      fail(index, "bad partition speed", token);
    }
    rest.resize(at);
  }
  if (!parse_int(rest, part.nodes)) fail(index, "bad partition size", token);
  return part;
}

MemberGroup parse_group(std::size_t index, const std::string& token) {
  MemberGroup group;
  group.name = "m" + std::to_string(index);
  // Options first: everything after the first ':' is :key=value pairs.
  std::vector<std::string> pieces = split(token, ':');
  for (std::size_t o = 1; o < pieces.size(); ++o) {
    const std::string& opt = pieces[o];
    if (opt.rfind("speed=", 0) == 0) {
      if (!parse_speed(opt.substr(6), group.speed)) {
        fail(index, "bad speed option", token);
      }
    } else if (opt.rfind("name=", 0) == 0) {
      group.name = opt.substr(5);
      if (!valid_name(group.name)) fail(index, "bad name option", token);
    } else {
      fail(index, "unknown option ':" + opt + "'", token);
    }
  }
  // "COUNTxSIZES" head.
  const std::string& head = pieces[0];
  const std::size_t x = head.find('x');
  if (x == std::string::npos) fail(index, "missing 'x'", token);
  if (!parse_int(head.substr(0, x), group.count)) {
    fail(index, "bad member count", token);
  }
  const std::string sizes = head.substr(x + 1);
  if (sizes.empty()) fail(index, "missing sizes", token);
  if (sizes.find('=') == std::string::npos) {
    if (!parse_int(sizes, group.nodes)) fail(index, "bad node count", token);
  } else {
    for (const std::string& part : split(sizes, '+')) {
      rms::Partition parsed = parse_partition(index, part);
      for (const rms::Partition& earlier : group.partitions) {
        if (earlier.name == parsed.name) {
          fail(index, "duplicate partition name '" + parsed.name + "'",
               token);
        }
      }
      group.partitions.push_back(std::move(parsed));
    }
  }
  return group;
}

}  // namespace

MemberMix parse_member_mix(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("member mix: empty spec");
  }
  MemberMix mix;
  const std::vector<std::string> tokens = split(spec, ',');
  for (std::size_t g = 0; g < tokens.size(); ++g) {
    if (tokens[g].empty()) fail(g, "empty group", spec);
    mix.groups.push_back(parse_group(g, tokens[g]));
  }
  for (std::size_t g = 0; g < mix.groups.size(); ++g) {
    for (std::size_t other = 0; other < g; ++other) {
      if (mix.groups[other].name == mix.groups[g].name) {
        fail(g, "duplicate group name '" + mix.groups[g].name + "'", spec);
      }
    }
  }
  return mix;
}

ClusterSpec member_spec(const MemberMix& mix, int index) {
  const int total = mix.total();
  if (index < 0 || total <= 0) {
    throw std::invalid_argument("member mix: bad member index");
  }
  const int cycle = index / total;
  int rem = index % total;
  const MemberGroup* group = nullptr;
  int ordinal = 0;
  for (const MemberGroup& candidate : mix.groups) {
    if (rem < candidate.count) {
      group = &candidate;
      ordinal = rem;
      break;
    }
    rem -= candidate.count;
  }
  // Single-count groups keep the historical name, name2, name3...
  // suffixes across cycles; multi-count groups number every member from
  // 1 so names stay unique however far the cycling goes.
  const int flat = cycle * group->count + ordinal;
  ClusterSpec spec;
  spec.name = group->count == 1 && flat == 0
                  ? group->name
                  : group->name + std::to_string(flat + 1);
  if (!group->partitions.empty()) {
    spec.rms.partitions = group->partitions;
  } else if (group->speed != 1.0) {
    spec.rms.partitions = {rms::Partition{"main", group->nodes, group->speed}};
  } else {
    spec.rms.nodes = group->nodes;
  }
  return spec;
}

}  // namespace dmr::fed

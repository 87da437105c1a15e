// The child side of dmrbench: one process runs one repetition of one
// workload and prints what it measured.  The parent spawns a fresh
// child per repetition, so every child starts from the same cold heap
// and its peak RSS (read by the parent from wait4) is its own.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace dmrbench {

enum class Mode {
  /// The measured section with every observer detached.
  kTimed,
  /// The layer trace: steps the engine itself and classifies each step
  /// (batch workloads), or times the service's period calls.
  kTraced,
  /// fig10 with one observer attached per cell, for its overhead.
  kSinkTrace,
  kSinkProfiler,
  kSinkAuditor,
  kSinkAttr,
  /// service with ServiceConfig::attribute_waits off.
  kAttrOff,
};

const char* mode_name(Mode mode);
/// False when `name` is not a mode name.
bool mode_from_name(const std::string& name, Mode& out);

/// Run one repetition and print its report on stdout: "key value" lines
/// ("digest" carries the outcome hash), closed by a line "end".  Returns
/// the process exit code.
int run_child(Workload workload, Mode mode, std::uint64_t seed, bool smoke);

}  // namespace dmrbench

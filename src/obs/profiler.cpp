#include "obs/profiler.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>

namespace dmr::obs {

Interest Profiler::interest() const { return kinds(EventKind::kDispatch); }

// Every event delivered is a kDispatch: SinkList::emit passes a sink only
// the kinds its interest() names.
void Profiler::on_event(const Event& /*event*/) {
  events_.fetch_add(1, std::memory_order_relaxed);
}

long Profiler::peak_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      // "VmHWM:   12345 kB": the first number after the blanks.
      const char* digits = line + 6;
      while (*digits == ' ' || *digits == '\t') ++digits;
      if (std::from_chars(digits, line + std::strlen(line), kb).ec !=
          std::errc()) {
        kb = 0;
      }
      break;
    }
  }
  std::fclose(status);
  return kb;
}

}  // namespace dmr::obs

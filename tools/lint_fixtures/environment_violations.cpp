// dmr-lint-fixture: path=src/util/settings.cpp
//
// The program reads no environment variable: a setting read from the
// environment changes a run without showing on its command line.  Each
// read below must fire; the name in a string or in this comment (getenv,
// environ) must not.
#include <cstdlib>
#include <string>
#include <unistd.h>

namespace dmr::util {

int sched_period() {
  const char* text = std::getenv("NANOX_SCHED_PERIOD");  // expect(environment)
  return text == nullptr ? 0 : 1;
}

bool has_tmpdir() {
  return ::secure_getenv("TMPDIR") != nullptr;  // expect(environment)
}

std::size_t environment_size() {
  char** entry = environ;  // expect(environment)
  std::size_t count = 0;
  while (*entry++ != nullptr) ++count;
  return count;
}

std::string rule_name() { return "getenv"; }

}  // namespace dmr::util

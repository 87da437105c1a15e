// dmr-lint-fixture: path=tests/test_settings.cpp
//
// Tests may read the environment (gtest itself honours GTEST_* variables,
// and a death test may inspect its child's).  Zero expectations.
#include <cstdlib>

namespace {

bool filtered() { return std::getenv("GTEST_FILTER") != nullptr; }

}  // namespace

// dmr-lint-fixture: path=src/wl/directives.cpp
//
// The unchecked-number rule is scoped to the command-line layer and the
// snapshot/JSON readers: the rest of src/ keeps its documented tolerant
// parsers (SWF fields and header directives check the end pointer
// themselves).  Zero expectations.
#include <cstdlib>
#include <string>

namespace dmr::wl {

bool parse_directive_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

long long directive_int(const std::string& text) { return std::stoll(text); }

}  // namespace dmr::wl

// dmr-lint-fixture: path=src/wl/directives.cpp
//
// The unchecked-number rule covers all of src/, not only the command-line
// layer and the snapshot/JSON readers: an end-pointer check does not stop
// strtod from accepting "inf", hex floats or a leading space, and std::sto*
// throws past the caller's error type.  std::from_chars with an end check
// is the clean form.
#include <charconv>
#include <cstdlib>
#include <string>

namespace dmr::wl {

bool parse_directive_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);      // expect(unchecked-number)
  return end != text.c_str() && *end == '\0';
}

long long directive_int(const std::string& text) {
  return std::stoll(text);                     // expect(unchecked-number)
}

int checked_count(const std::string& text) {
  int value = 0;
  const char* last = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), last, value);
  return error == std::errc() && stop == last ? value : -1;
}

}  // namespace dmr::wl

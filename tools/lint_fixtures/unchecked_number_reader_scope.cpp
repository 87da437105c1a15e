// dmr-lint-fixture: path=src/svc/snapshot_probe.cpp
//
// The snapshot and JSON readers (src/svc/, src/obs/) sit on a trust
// boundary: the unchecked-number rule fires there as it does on the
// command line.  std::from_chars with an end check is the clean form.
#include <charconv>
#include <cstdio>
#include <string>

namespace dmr::svc {

double read_fields(const std::string& time, const char* line) {
  double t = std::stod(time);                  // expect(unchecked-number)
  unsigned long n = std::stoul(time);          // expect(unchecked-number)
  long kb = 0;
  std::sscanf(line, "%ld", &kb);               // expect(unchecked-number)
  long checked = 0;
  const char* end = line + 4;
  if (std::from_chars(line, end, checked).ptr != end) checked = 0;
  return t + static_cast<double>(n + static_cast<unsigned long>(kb)) +
         static_cast<double>(checked);
}

}  // namespace dmr::svc

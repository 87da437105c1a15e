// dmr-lint-fixture: path=examples/cli_probe.cpp
//
// Every unchecked number parser must fire in the command-line layer:
// each wraps, truncates or throws instead of rejecting with exit 2.
#include <cstdio>
#include <cstdlib>
#include <string>

namespace dmr::examples {

double parse_options(const char* text, const std::string& value) {
  int a = std::atoi(text);                     // expect(unchecked-number)
  long b = atol(text);                         // expect(unchecked-number)
  long long c = std::atoll(text);              // expect(unchecked-number)
  double d = std::atof(text);                  // expect(unchecked-number)
  double e = 0.0;
  std::sscanf(text, "load=%lf", &e);           // expect(unchecked-number)
  long f = std::strtol(text, nullptr, 10);     // expect(unchecked-number)
  unsigned long long g =
      std::strtoull(text, nullptr, 10);        // expect(unchecked-number)
  double h = std::strtod(text, nullptr);       // expect(unchecked-number)
  int i = std::stoi(value);                    // expect(unchecked-number)
  unsigned long long j = std::stoull(value);   // expect(unchecked-number)
  double k = std::stod(value);                 // expect(unchecked-number)
  return a + b + c + d + e + f + g + h + i + j + k;
}

}  // namespace dmr::examples

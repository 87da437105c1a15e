// trace_validate — strict re-reader for recorded trace files.
//
// Validates each argument with obs::validate_trace (real JSON parser +
// the Perfetto-loadability rules: balanced spans, monotone tracks,
// dropped-event accounting) and prints one summary line per file.
// Exit status 0 iff every file validated; the trace_smoke ctest runs
// this against a fresh `sweep --trace` output.
//
// Usage:  trace_validate FILE.json [FILE.json ...]
//         trace_validate --min-counter-tracks N FILE.json ...
//   --min-counter-tracks N   additionally require at least N distinct
//                            counter tracks (the smoke test asserts the
//                            utilization/queue/reconfig tracks exist)
//   --min-spans N            additionally require at least N spans
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dmr/observe.hpp"
#include "dmr/util.hpp"

int main(int argc, char** argv) {
  int min_counter_tracks = 0;
  int min_spans = 0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-counter-tracks") == 0 && i + 1 < argc) {
      min_counter_tracks =
          dmr::util::parse_count(argv[++i], "--min-counter-tracks", 0);
    } else if (std::strcmp(argv[i], "--min-spans") == 0 && i + 1 < argc) {
      min_spans = dmr::util::parse_count(argv[++i], "--min-spans", 0);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [--min-counter-tracks N] [--min-spans N] "
                   "FILE.json ...\n",
                   argv[0]);
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "trace_validate: no files given\n");
    return 2;
  }

  bool all_ok = true;
  for (const std::string& file : files) {
    const dmr::obs::TraceValidation result =
        dmr::obs::validate_trace_file(file);
    bool ok = result.ok;
    // describe() already carries the per-error/-warning lines.
    std::printf("%s: %s\n", file.c_str(), result.describe().c_str());
    if (ok && result.counter_tracks < min_counter_tracks) {
      std::printf("  error: %d counter track(s), expected >= %d\n",
                  result.counter_tracks, min_counter_tracks);
      ok = false;
    }
    if (ok && static_cast<int>(result.spans) < min_spans) {
      std::printf("  error: %zu span(s), expected >= %d\n", result.spans,
                  min_spans);
      ok = false;
    }
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

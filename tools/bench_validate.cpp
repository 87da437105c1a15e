// bench_validate — provenance checker for the BENCH_*.json trajectories.
//
// Every BENCH file is JSON-lines, one row per recorded run.  A row
// without provenance (which commit, when, how many threads) is a number
// nobody can reproduce, so this tool re-reads every row with the real
// JSON parser (obs/json.hpp) and requires:
//
//   - the line parses as a JSON object,
//   - "git_sha" is a non-empty string,
//   - "timestamp" is a non-empty string,
//   - "threads" is a number >= 1.
//
// Usage:  bench_validate FILE.json [FILE.json ...]
//         bench_validate --dir DIR     validate every BENCH_*.json in DIR
//         bench_validate --regress FILE.json
//
// Exit status 0 iff every row of every file passes; a --dir with no
// BENCH_*.json files is an error (a vacuous pass would hide a renamed
// trajectory).  Wired as the bench_validate ctest and a CI step.
//
// --regress is the throughput-regression guard: it compares the
// jobs_per_second of the file's freshest row (the last line, i.e. the
// row the CI run just appended) against the median of the last five
// prior rows of the same "workload" that carry the field.  The verdict
// is "regressed" when the fresh row falls below that median by more
// than 15% or three median absolute deviations of those rows, whichever
// is larger, so a noisy history widens the tolerance instead of being
// reported as a regression.  Jobs/s, not events/s: the driver dispatches
// one event per reconfiguring point that reaches the RMS, so events per
// job depend on the workload.  Warn-only by design — shared-runner noise
// would make a hard gate flaky — so the exit status stays 0 and CI
// uploads the report as an artifact next to the provenance gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

/// --regress compares against the median of this many prior rows...
constexpr std::size_t kWindow = 5;
/// ...and never flags a drop smaller than this, however quiet they were.
constexpr double kMinTolerancePct = 15.0;

/// Validate one JSON-lines file; prints per-row diagnostics, returns the
/// number of bad rows.
int validate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("%s: error: unreadable\n", path.c_str());
    return 1;
  }
  int bad = 0;
  int rows = 0;
  int line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++rows;
    dmr::obs::JsonValue row;
    std::string error;
    if (!dmr::obs::parse_json(line, row, error)) {
      std::printf("%s:%d: error: %s\n", path.c_str(), line_no, error.c_str());
      ++bad;
      continue;
    }
    if (row.kind != dmr::obs::JsonValue::Kind::Object) {
      std::printf("%s:%d: error: row is not a JSON object\n", path.c_str(),
                  line_no);
      ++bad;
      continue;
    }
    bool row_ok = true;
    for (const char* key : {"git_sha", "timestamp"}) {
      const dmr::obs::JsonValue* value = row.field(key);
      if (value == nullptr ||
          value->kind != dmr::obs::JsonValue::Kind::String ||
          value->text.empty()) {
        std::printf("%s:%d: error: missing or empty \"%s\" (string)\n",
                    path.c_str(), line_no, key);
        row_ok = false;
      }
    }
    const dmr::obs::JsonValue* threads = row.field("threads");
    if (threads == nullptr ||
        threads->kind != dmr::obs::JsonValue::Kind::Number ||
        !(threads->number >= 1.0)) {
      std::printf("%s:%d: error: missing \"threads\" (number >= 1)\n",
                  path.c_str(), line_no);
      row_ok = false;
    }
    if (!row_ok) ++bad;
  }
  if (rows == 0) {
    std::printf("%s: error: no rows (an empty trajectory proves nothing)\n",
                path.c_str());
    return 1;
  }
  if (bad == 0) {
    std::printf("%s: %d row(s), provenance ok\n", path.c_str(), rows);
  }
  return bad;
}

/// Median of a non-empty sample.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Throughput-regression report for the freshest row of one trajectory.
/// Returns 1 only on structural failure (unreadable file, a freshest row
/// without jobs_per_second); a regression itself is reported but never
/// fails the run.
int report_regression(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("%s: error: unreadable\n", path.c_str());
    return 1;
  }
  struct Row {
    std::string workload;
    /// Negative when the row has no jobs_per_second.
    double jobs_per_second = -1.0;
    std::string git_sha;
    std::string timestamp;
  };
  std::vector<Row> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    dmr::obs::JsonValue value;
    std::string error;
    if (!dmr::obs::parse_json(line, value, error)) {
      std::printf("%s:%d: error: %s\n", path.c_str(), line_no, error.c_str());
      return 1;
    }
    const dmr::obs::JsonValue* workload = value.field("workload");
    if (workload == nullptr ||
        workload->kind != dmr::obs::JsonValue::Kind::String) {
      continue;  // not a throughput row (other BENCH files ride along)
    }
    Row row;
    row.workload = workload->text;
    const dmr::obs::JsonValue* rate = value.field("jobs_per_second");
    if (rate != nullptr && rate->kind == dmr::obs::JsonValue::Kind::Number) {
      row.jobs_per_second = rate->number;
    }
    if (const auto* sha = value.field("git_sha")) row.git_sha = sha->text;
    if (const auto* ts = value.field("timestamp")) row.timestamp = ts->text;
    rows.push_back(std::move(row));
  }
  if (rows.empty() || rows.back().jobs_per_second <= 0.0) {
    std::printf("%s: error: the freshest row has no jobs_per_second\n",
                path.c_str());
    return 1;
  }
  const Row& fresh = rows.back();
  std::vector<double> window;
  for (std::size_t i = rows.size() - 1; i-- > 0 && window.size() < kWindow;) {
    if (rows[i].workload == fresh.workload && rows[i].jobs_per_second > 0.0) {
      window.push_back(rows[i].jobs_per_second);
    }
  }
  if (window.empty()) {
    std::printf("%s: workload \"%s\": %.0f jobs/s — no prior row, "
                "verdict: baseline\n",
                path.c_str(), fresh.workload.c_str(), fresh.jobs_per_second);
    return 0;
  }
  const double baseline = median(window);
  std::vector<double> deviations;
  for (const double rate : window) {
    deviations.push_back(std::abs(rate - baseline));
  }
  const double tolerance =
      std::max(kMinTolerancePct, 3.0 * median(deviations) / baseline * 100.0);
  const double change = (fresh.jobs_per_second - baseline) / baseline * 100.0;
  const bool regressed = change < -tolerance;
  std::printf("%s: workload \"%s\": fresh %.0f jobs/s (%s %s) vs median "
              "%.0f jobs/s of the last %zu prior row(s): %+.1f%%, tolerance "
              "%.1f%% — verdict: %s\n",
              path.c_str(), fresh.workload.c_str(), fresh.jobs_per_second,
              fresh.git_sha.c_str(), fresh.timestamp.c_str(), baseline,
              window.size(), change, tolerance,
              regressed ? "regressed" : "ok");
  if (regressed) {
    std::printf("%s: WARNING: \"%s\" is slower than its recent runs by more "
                "than their noise — investigate before trusting new rows\n",
                path.c_str(), fresh.workload.c_str());
  }
  return 0;  // warn-only: shared-runner noise must not fail CI
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--regress") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s --regress FILE.json\n", argv[0]);
      return 2;
    }
    return report_regression(argv[2]);
  }
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      const std::filesystem::path dir = argv[++i];
      std::error_code ec;
      for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
          files.push_back(entry.path().string());
        }
      }
      if (ec) {
        std::fprintf(stderr, "bench_validate: %s: %s\n", dir.string().c_str(),
                     ec.message().c_str());
        return 1;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s FILE.json ...\n       %s --dir DIR\n"
                   "       %s --regress FILE.json\n",
                   argv[0], argv[0], argv[0]);
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "bench_validate: no BENCH_*.json files found (give files "
                 "or --dir)\n");
    return 1;
  }
  std::sort(files.begin(), files.end());
  int bad = 0;
  for (const std::string& file : files) bad += validate_file(file);
  return bad == 0 ? 0 : 1;
}

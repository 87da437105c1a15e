#!/usr/bin/env bash
# Build dmrbench into build/benchmark and run it with the given
# arguments (see benchmark/README.md).  With no arguments it prints the
# full report; `--workload NAME --seed N --seconds N --trace 0|1` is
# one run ending in one JSON line.  Build output goes to stderr, so the
# last line of stdout is always dmrbench's own.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/benchmark"
mkdir -p "$build"

build_dmrbench() {
  # Configure until a build system exists (a failed configure can leave
  # a cache behind without one); after that the build re-runs CMake
  # itself whenever a CMakeLists.txt changes.
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$root/benchmark" -B "$build" -G "Unix Makefiles" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" --target dmrbench -j 4
}

# Runs sharing a checkout must not build over each other.
(
  flock 9
  build_dmrbench
) 9>"$build/.lock" >&2

exec "$build/dmrbench" "$@"

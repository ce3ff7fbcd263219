#!/usr/bin/env bash
# Builds the benchmark program (icg_bench) in Release: configures benchmark/ (which pulls in the
# repository's icg_core through the root CMakeLists, tests/benches/examples off) into
# build-release/benchmark/build and compiles it. Idempotent; a no-op rebuild takes about
# a second. All build output goes to stderr, so callers can keep stdout for results.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/build-release/benchmark/build"
jobs="$(nproc 2>/dev/null || echo 2)"
jobs=$(( jobs > 4 ? 4 : jobs ))

if [[ ! -f "${root}/CMakeLists.txt" || ! -d "${root}/src" ]]; then
  echo "benchmark/build.sh: no ICG sources next to benchmark/ (expected ${root}/src)" >&2
  exit 1
fi

{
  if [[ ! -f "${build}/CMakeCache.txt" ]]; then
    cmake -S "${root}/benchmark" -B "${build}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "${build}" --target icg_bench -j "${jobs}"
} 1>&2

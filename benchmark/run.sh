#!/usr/bin/env bash
# Runs the ICG stack benchmark: builds it (benchmark/build.sh), then runs each selected
# workload in its own process.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--trace [0|1]] [--smoke]
#
# Defaults: every workload, seed 1, untraced. `--trace` alone means `--trace 1`. Each
# workload's timed window is a fixed virtual length (benchmark/workloads.cc); a
# `--seconds N` argument is accepted, because benchmark drivers pass one to every
# benchmark, and ignored. Prints `<workload> <metric> <value> <unit>` and
# `check.<name> ok|FAIL` lines; each workload's last line is its JSON result. Results and
# traces land in build-release/benchmark/. Exits non-zero if the build fails or any
# check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workloads=()
seed=1
trace=0
smoke=()

while (($#)); do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "benchmark/run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
if ((${#workloads[@]} == 0)); then
  workloads=(icg-read-b durable-write-a ads-speculate placed-lanes-w4)
fi

"${root}/benchmark/build.sh"

cd "${root}"
status=0
for workload in "${workloads[@]}"; do
  "${root}/build-release/benchmark/build/icg_bench" --workload "${workload}" --seed "${seed}" \
    --trace "${trace}" "${smoke[@]}" || status=1
done
exit "${status}"

#!/usr/bin/env bash
# Repeatability check: runs the benchmark suite twice on the same code and seeds, and
# compares the two sets metric by metric against the bounds in BENCHMARK.json.
#
#   benchmark/check_repeat.sh [--seeds "1 2 3"] [--workload W]...
#
# For every workload it prints each end-to-end metric's median and quartiles in both
# sets, and fails when
#   - a virtual-time metric (latencies, capacity, bytes and messages per op) differs at
#     all between two runs of one seed: the simulation must be bit-for-bit repeatable;
#   - the second set's median is worse than the first's by more than the metric's bound.
# Exits non-zero on any failure, or if any run fails a check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
"${root}/benchmark/build.sh"
exec python3 - "${root}" "$@" <<'EOF'
import json
import statistics
import subprocess
import sys

root, args = sys.argv[1], sys.argv[2:]
seeds, workloads = [1, 2, 3], []
while args:
    flag, value, args = args[0], args[1], args[2:]
    if flag == "--seeds":
        seeds = [int(s) for s in value.split()]
    elif flag == "--workload":
        workloads.append(value)
    else:
        sys.exit(f"check_repeat.sh: unknown argument {flag}")

bench = json.load(open(f"{root}/BENCHMARK.json"))
workloads = workloads or [w["name"] for w in bench["workloads"]]
VIRTUAL = {"prelim_p50_ms", "prelim_p99_ms", "final_p50_ms", "final_p99_ms",
           "final_p999_ms", "capacity_ops", "bytes_per_op", "msgs_per_op"}


def run(workload, seed):
    out = subprocess.run(
        [f"{root}/build-release/benchmark/build/icg_bench", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=root)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["correct"] and out.returncode == 0, result["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


failures = []
for workload in workloads:
    sets = []
    for _ in range(2):
        runs = {}
        for seed in seeds:
            ok, metrics = run(workload, seed)
            if not ok:
                failures.append(f"{workload} seed {seed}: a check failed")
            runs[seed] = metrics
        sets.append(runs)
    print(f"== {workload} (seeds {' '.join(map(str, seeds))})")
    print(f"{'metric':16s} {'set':>3s} {'q1':>14s} {'median':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        medians = []
        for index, runs in enumerate(sets):
            values = [runs[s][name]["value"] for s in seeds]
            q1, med, q3 = quartiles(values)
            medians.append(med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:16s} {index + 1:3d} {q1:14.6g} {med:14.6g} {q3:14.6g} "
                  f"{100 * spread:7.2f}% {100 * bound:5.1f}%")
        first, second = medians
        if first == 0:
            failures.append(f"{workload} {name}: first median is 0, no bound applies")
        else:
            worse = (second - first) / first if spec["better"] == "lower" else (first - second) / first
            if worse > bound:
                failures.append(f"{workload} {name}: second median worse by {100 * worse:.2f}%")
        if name in VIRTUAL:
            for seed in seeds:
                if sets[0][seed][name]["value"] != sets[1][seed][name]["value"]:
                    failures.append(f"{workload} {name}: seed {seed} not bit-identical")

for failure in failures:
    print("FAIL", failure)
print("check_repeat:", "FAIL" if failures else "ok")
sys.exit(1 if failures else 0)
EOF

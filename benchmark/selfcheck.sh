#!/usr/bin/env bash
# Self-check of the benchmark's repeatability: runs the one command of
# BENCHMARK.json as two interleaved sets (A1 B1 A2 B2 ...) of RUNS runs per
# workload on the same code, every run with another seed, and prints per
# workload x end-to-end metric each set's median, by how much the two medians
# differ (the larger over the smaller, whichever set it is), each set's
# run-to-run spread (interquartile range as a share of the median) and
# PASS/FAIL against the metric's bound.
#
#   benchmark/selfcheck.sh                 # 5 runs per set, seeds from 1
#   RUNS=10 SEED=100 benchmark/selfcheck.sh
#   WORKLOADS="monitor_clean_100k" benchmark/selfcheck.sh
#
# The table goes to standard output, every run's values to standard error.
# Exits non-zero if any row fails or any run reports a failed operation.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${RUNS:-5}" "${SEED:-1}" "${WORKLOADS:-}" <<'PY'
import json, statistics, subprocess, sys

runs, first_seed, only = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3].split()
if runs < 2:
    sys.exit("RUNS must be at least 2")
spec = json.load(open("BENCHMARK.json"))


def run(workload, seed):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(spec["command"] + args, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(workload, seed, json.dumps(values), file=sys.stderr, flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


failed = False
print("| workload | metric | median A | median B | differ by | spread A | spread B | bound | |")
print("| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: | --- |")
for workload in (w["name"] for w in spec["workloads"]):
    if only and workload not in only:
        continue
    sets = ([], [])
    for i in range(runs):
        for s in (0, 1):
            sets[s].append(run(workload, first_seed + 2 * i + s))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = ([r[name] for r in one] for one in sets)
        # Same code on both sides, so either set being the worse one is a
        # disagreement, whichever direction the metric improves in.
        low, high = sorted((statistics.median(a), statistics.median(b)))
        differ = high / low - 1
        # As the driver does: set-up time is held to the medians only.
        steady = name == "setup_s" or max(spread(a), spread(b)) <= bound
        ok = steady and differ <= bound
        failed |= not ok
        print(f"| `{workload}` | `{name}` | {statistics.median(a):.4f} | {statistics.median(b):.4f} "
              f"| {differ:.1%} | {spread(a):.1%} | {spread(b):.1%} | {bound:.0%} "
              f"| {'PASS' if ok else 'FAIL'} |", flush=True)
sys.exit(1 if failed else 0)
PY

#!/usr/bin/env bash
# Runs the benchmark the way its acceptance is checked: two sets of N runs of
# the same build per workload, each run with another seed, and for every
# end-to-end metric the median and quartiles of each set, the spread
# (quartile distance over median) against the metric's bound, and whether
# the second set's median is worse than the first's by more than the bound.
#
#   bench/repeat.sh [-n RUNS] [workload ...]      (from the repository root)
#
# Command, workloads, run length and bounds are read from BENCHMARK.json.
# Exits 1 when a spread or a drift exceeds its bound.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

args = sys.argv[1:]
runs = 10
if args[:1] == ["-n"]:
    runs, args = int(args[1]), args[2:]
bench = json.load(open("BENCHMARK.json"))
workloads = args or [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]

def run(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}

# Builds the benchmark and checks all five workloads at smoke size.
subprocess.run(bench["command"] + ["--smoke"], check=True, capture_output=True)

sets = []
for s in range(2):
    sets.append({})
    for w in workloads:
        sets[s][w] = []
        for i in range(runs):
            sets[s][w].append(run(w, 1 + s * runs + i))
            print(f"set {s + 1} {w} run {i + 1}/{runs}", file=sys.stderr)

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med

bad = False
print(f"{'workload':<16} {'metric':<16} {'bound':>5}  "
      f"{'median 1':>11} {'q1':>11} {'q3':>11} {'spread':>6}  "
      f"{'median 2':>11} {'q1':>11} {'q3':>11} {'spread':>6}  {'drift':>7}  verdict")
for w in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = summary([r[name] for r in sets[0][w]])
        b = summary([r[name] for r in sets[1][w]])
        # Positive drift: the second set is worse than the first.
        drift = (b[0] - a[0]) / a[0] * (1 if m["better"] == "lower" else -1)
        problems = []
        if name != "setup_s" and max(a[3], b[3]) > bound:
            problems.append("spread")
        if drift > bound:
            problems.append("drift")
        if not problems and name != "setup_s" and max(a[3], b[3]) > bound / 3:
            problems.append("(spread above a third of the bound)")
        bad |= any(p in ("spread", "drift") for p in problems)
        print(f"{w:<16} {name:<16} {bound:>5.2f}  "
              f"{a[0]:>11.4f} {a[1]:>11.4f} {a[2]:>11.4f} {a[3]:>6.3f}  "
              f"{b[0]:>11.4f} {b[1]:>11.4f} {b[2]:>11.4f} {b[3]:>6.3f}  {drift:>+7.3f}  "
              f"{' '.join(problems) or 'ok'}")
sys.exit(1 if bad else 0)
PY

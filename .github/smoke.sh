#!/usr/bin/env bash
# One round of a benchmark workload, for CI: the arguments go to
# perfbench/run.py (e.g. --workload dp_audit --trace 1).  Prints the run's
# metrics (name, value and unit), so the CI log keeps them per workload and
# commit, then fails unless the run's last stdout line is strict JSON (no NaN
# or Infinity) that reads correct: true and failed: 0.
set -euo pipefail
out=$(python3 perfbench/run.py --seed 0 --seconds 0 "$@")
printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys

def reject(constant):
    raise ValueError(f"not strict JSON: {constant}")

line = sys.stdin.read()
print("metrics of", " ".join(sys.argv[1:]))
for name, metric in json.loads(line)["metrics"].items():
    print("  %s %r %s" % (name, metric["value"], metric["unit"]))
r = json.loads(line, parse_constant=reject)
sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$@"

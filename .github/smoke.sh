#!/usr/bin/env bash
# One round of a benchmark workload, for CI: the arguments go to
# perfbench/run.py (e.g. --workload dp_audit --trace 1).  Prints the run's
# metrics (name, value and unit), so the CI log keeps them per workload and
# commit, then fails unless the run's last stdout line is strict JSON (no NaN
# or Infinity) that reads correct: true and failed: 0, and whose metric names
# are, in order, BENCHMARK.json's end_to_end names (--trace 0) or per_layer
# names (--trace 1); it prints any missing or extra names.
set -euo pipefail
out=$(python3 perfbench/run.py --seed 0 --seconds 0 "$@")
printf '%s\n' "$out" | tail -n 1 | python3 -c '
import argparse, json, sys

def reject(constant):
    raise ValueError(f"not strict JSON: {constant}")

line = sys.stdin.read()
print("metrics of", " ".join(sys.argv[1:]))
for name, metric in json.loads(line)["metrics"].items():
    print("  %s %r %s" % (name, metric["value"], metric["unit"]))
r = json.loads(line, parse_constant=reject)
parser = argparse.ArgumentParser(add_help=False)
parser.add_argument("--trace", type=int, default=0)
kind = "per_layer" if parser.parse_known_args(sys.argv[1:])[0].trace else "end_to_end"
with open("BENCHMARK.json", encoding="utf-8") as fh:
    want = [metric["name"] for metric in json.load(fh)[kind]]
got = list(r["metrics"])
if got != want:
    print(f"metric names differ, in name or order, from the {kind} names of BENCHMARK.json")
    print("  missing:", " ".join(n for n in want if n not in got) or "none")
    print("  extra:", " ".join(n for n in got if n not in want) or "none")
sys.exit(not (r["correct"] is True and r["failed"] == 0 and got == want))' "$@"

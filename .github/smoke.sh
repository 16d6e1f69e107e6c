#!/usr/bin/env bash
# One round of a benchmark workload, for CI: the arguments go to
# perfbench/run.py (e.g. --workload dp_audit --trace 1).  Fails unless the
# run's summary line reads correct: true and failed: 0.
set -euo pipefail
out=$(python3 perfbench/run.py --seed 0 --seconds 0 "$@")
printf '%s\n' "$out" | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'

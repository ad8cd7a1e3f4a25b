#!/usr/bin/env bash
# Tier-1 tests, then the benchmark's smoke run (every workload, tiny inputs,
# about 13 s) and one short select-kernels run at full size (400 models,
# about 8 s), the checks that compare output bytes against
# perfbench/pins.json. Fails if any fails, if the smoke run reports a trace
# hook whose target is missing, or if the select-kernels run's result line
# is not correct with no failed stage.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -q --continue-on-collection-errors

smoke_log=$(mktemp)
select_log=$(mktemp)
trap 'rm -f "$smoke_log" "$select_log"' EXIT
python3 perfbench/run.py --smoke > "$smoke_log" || { cat "$smoke_log"; exit 1; }
grep -v '^{' "$smoke_log"
if grep -q "trace hook target missing" "$smoke_log"; then
    echo "check: a trace hook target is missing" >&2
    exit 1
fi

python3 perfbench/run.py --workload select-kernels --seed 0 --seconds 1 --trace 0 \
    > "$select_log" || { cat "$select_log"; exit 1; }
grep -v '^{' "$select_log"
if ! tail -n 1 "$select_log" | python3 -c '
import json, sys
result = json.load(sys.stdin)
sys.exit(not (result["correct"] is True and result["failed"] == 0))'; then
    tail -n 1 "$select_log"
    echo "check: the 400-model select-kernels run failed its checks" >&2
    exit 1
fi

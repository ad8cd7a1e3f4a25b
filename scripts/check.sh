#!/usr/bin/env bash
# Tier-1 tests, then the benchmark's smoke run (every workload, tiny inputs,
# about 13 s), the only check that compares output bytes against
# perfbench/pins.json. Fails if either fails or if the smoke run reports a
# trace hook whose target is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -q --continue-on-collection-errors

smoke_log=$(mktemp)
trap 'rm -f "$smoke_log"' EXIT
python3 perfbench/run.py --smoke > "$smoke_log" || { cat "$smoke_log"; exit 1; }
grep -v '^{' "$smoke_log"
if grep -q "trace hook target missing" "$smoke_log"; then
    echo "check: a trace hook target is missing" >&2
    exit 1
fi

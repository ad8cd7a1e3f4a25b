#!/usr/bin/env bash
# Tier-1 tests; a fuzz sweep (tests/test_cli_fuzz.py under the `sweep`
# hypothesis profile and seeds 1-5, about 20 s each); the oracle's bytes
# against perfbench/pins.json at full size for seed 0 (about 20 s); then
# the benchmark's smoke run (every workload, tiny inputs, about 13 s) and
# one short select-kernels run at full size (400 models, about 8 s), the
# checks that compare chatmt's output bytes against perfbench/pins.json;
# last, the numpy-free smoke stages under each python3.10 ... python3.13
# that starts, or else that version's pyenv install, under PYTHONHASHSEED=1
# and under LC_ALL=C PYTHONUTF8=0, where bsce-select's printed selection is
# checked too, against the same pins (about 3 s,
# scripts/interpreter_check.py).
# Fails if any fails, if the smoke run reports a trace hook whose target is
# missing, or if the select-kernels run's result line is not correct with
# no failed stage.
set -euo pipefail
cd "$(dirname "$0")/.."
src_path="src${PYTHONPATH:+:$PYTHONPATH}"

PYTHONPATH="$src_path" python3 -m pytest -q --continue-on-collection-errors
for seed in 1 2 3 4 5; do
    PYTHONPATH="$src_path" python3 -m pytest -q tests/test_cli_fuzz.py \
        --hypothesis-profile sweep --hypothesis-seed "$seed"
done
PYTHONPATH="$src_path" python3 tests/test_pins.py

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

python3 scripts/interpreter_check.py

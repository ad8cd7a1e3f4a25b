#!/usr/bin/env bash
# End-to-end demo on generated sample data: pipeline and ensemble selection.
# Runs from a plain checkout; no install needed.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python3 scripts/make_sample_data.py --out-dir data/sample --seed 42

python3 -m chatmt pipeline data/sample/pipeline.json --report data/sample/run_report.json
python3 -m chatmt bsce-select --scores data/sample/scores.json --ensemble-size 3 \
    --out data/sample/selection.json

echo "--- selected ensemble ---"
cat data/sample/selection.json

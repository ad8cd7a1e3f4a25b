"""perfbench/pins.json holds the oracle's bytes: each workload's inputs,
written by perfbench/gen.py for every pinned seed and run through
tests/oracle.py's stages with the configs of perfbench/workloads.py's
stage args, give the pinned sha256. Tier-1 checks the smoke sizes;
scripts/check.sh also checks full size at seed 0:

    PYTHONPATH=src python3 tests/test_pins.py

tests/test_golden.py's pins are the oracle's bytes too.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

import oracle
from chatmt.chatprep import SAME_LANGUAGE, ContextConfig
from chatmt.denoise import DenoiseConfig
from chatmt.filtering import FilterConfig
from conftest import oracle_outputs
from test_golden import FILTERED_JSONL_PIN, PINS as GOLDEN_PINS, make_sample, \
    punct_corpus_lines, span_corpus_lines

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Import perfbench's modules without writing bytecode under perfbench/.
sys.path.insert(0, str(PERFBENCH))
sys.dont_write_bytecode, _was = True, sys.dont_write_bytecode
try:
    from checks import load_pins, pin_key
    from gen import write_inputs
    from workloads import WORKLOADS
finally:
    sys.dont_write_bytecode = _was
    sys.path.remove(str(PERFBENCH))

PINS = load_pins()
PINNED_SEEDS = range(21)  # perfbench/pin.py --seeds 0-20


def check_pins(workload: str, smoke: bool, seed: int, work: Path) -> None:
    """Write the workload's inputs under work, run the oracle's stages on
    them, and compare each pinned output's sha256 with its pin."""
    wl = WORKLOADS[workload]
    write_inputs(wl.smoke_inputs if smoke else wl.inputs, seed, work)
    files = {path.name: path.read_bytes() for path in work.iterdir()}
    digests = {}
    for stage in wl.stages:
        if stage.outputs:  # the attention stage writes no pinned file
            outputs = oracle_outputs(stage.argv(seed))(files)
            files.update(outputs)
            digests.update({name: hashlib.sha256(data).hexdigest()
                            for name, data in outputs.items()})
    assert digests == PINS[pin_key(workload, smoke, seed)], (workload, seed)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pins_are_the_oracles_bytes(workload, tmp_path):
    for seed in PINNED_SEEDS:
        check_pins(workload, True, seed, tmp_path / str(seed))


def test_golden_pins_are_the_oracles_bytes(tmp_path):
    """The runs tests/test_golden.py pins: the sample pipeline (the stage
    configs of the pipeline.json scripts/make_sample_data.py writes at seed
    42), bsce-select on its scores, the span-carrying JSONL denoise run and
    the non-ASCII JSONL filter run."""
    make_sample(tmp_path)
    sample = {name: (tmp_path / name).read_bytes()
              for name in ("bitext.tsv", "chat.jsonl", "scores.json")}
    outputs = dict(zip(["bitext.filtered.tsv", "chat.prepped.tsv", "chat.noised.tsv"],
                       oracle.run_pipeline(
                           sample["bitext.tsv"], sample["chat.jsonl"], "tsv", "tsv", "tsv",
                           FilterConfig(),
                           ContextConfig(n_prev=2, mode=SAME_LANGUAGE, speaker_tags=True),
                           DenoiseConfig(seed=42, pair_fraction=0.3, token_prob=0.15))))
    outputs["selection.json"] = oracle.run_bsce(sample["scores.json"], 3)
    outputs["spans.noised.jsonl"] = oracle.run_denoise(
        "".join(span_corpus_lines(seed=7, n=300)).encode(), "jsonl", "jsonl",
        DenoiseConfig(seed=13, pair_fraction=0.5, token_prob=0.3))
    outputs["punct.filtered.jsonl"] = oracle.run_filter(
        "".join(punct_corpus_lines(seed=11, n=400)).encode(), "jsonl", "jsonl", FilterConfig())
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == \
        {**GOLDEN_PINS, "punct.filtered.jsonl": FILTERED_JSONL_PIN}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(WORKLOADS):
            check_pins(workload, False, 0, Path(tmp) / workload)
            print(f"{pin_key(workload, False, 0)}: match")

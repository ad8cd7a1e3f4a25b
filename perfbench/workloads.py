"""The benchmark's workloads: the inputs each one generates and the stage
processes one pass runs, in order.

Stage args are `chatmt` CLI arguments, run as `python -m chatmt <args>`;
the `attention` stage runs `perfbench/kernels.py <args>` instead, because
the CLI has no attention forward command. `{seed}` in an argument is the
benchmark seed. Paths are relative to the run's work directory.
"""
from __future__ import annotations

from dataclasses import dataclass

from gen import BitextSpec, ChatSpec, ScoresSpec, SpanSpec

ENSEMBLE_SIZE = 8
KERNEL_REPS = 7


@dataclass(frozen=True)
class Stage:
    name: str                 # filter, chatprep, denoise, bsce-select, attention
    args: tuple[str, ...]
    work_input: str | None    # file whose records are the stage's work units
    outputs: tuple[str, ...]  # files whose sha256 is checked and pinned
    report: str | None = None

    def argv(self, seed: int) -> list[str]:
        return [a.format(seed=seed) for a in self.args]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    inputs: dict
    smoke_inputs: dict
    stages: tuple[Stage, ...]


def _cli(name, args, work_input, output):
    report = f"{name}.report.json"
    return Stage(name, (name, *args, "--report", report), work_input, (output,), report)


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="filter-tsv",
        inputs={"bitext.tsv": BitextSpec(pairs=200_000, non_ascii=0.01)},
        smoke_inputs={"bitext.tsv": BitextSpec(pairs=2_000, non_ascii=0.01)},
        stages=(
            _cli("filter", ("--in", "bitext.tsv", "--out", "filtered.tsv"),
                 "bitext.tsv", "filtered.tsv"),
        ),
    ),
    Workload(
        name="chat-tsv",
        inputs={"chat.jsonl": ChatSpec(dialogues=2_500, min_turns=20, max_turns=60)},
        smoke_inputs={"chat.jsonl": ChatSpec(dialogues=40, min_turns=20, max_turns=60)},
        stages=(
            _cli("chatprep", ("--in", "chat.jsonl", "--out", "prepped.tsv", "--n-prev", "3"),
                 "chat.jsonl", "prepped.tsv"),
            _cli("denoise", ("--in", "prepped.tsv", "--out", "noised.tsv", "--seed", "{seed}"),
                 "prepped.tsv", "noised.tsv"),
        ),
    ),
    Workload(
        name="mixed-jsonl",
        inputs={
            "bitext.jsonl": BitextSpec(pairs=90_000, fmt="jsonl", non_ascii=0.73,
                                       synthetic=0.5),
            "spans.jsonl": SpanSpec(pairs=45_000, spans=1.0, non_ascii=0.73, synthetic=0.5),
        },
        smoke_inputs={
            "bitext.jsonl": BitextSpec(pairs=1_500, fmt="jsonl", non_ascii=0.73,
                                       synthetic=0.5),
            "spans.jsonl": SpanSpec(pairs=800, spans=1.0, non_ascii=0.73, synthetic=0.5),
        },
        stages=(
            _cli("filter", ("--in", "bitext.jsonl", "--out", "filtered.jsonl"),
                 "bitext.jsonl", "filtered.jsonl"),
            _cli("denoise", ("--in", "spans.jsonl", "--out", "noised.jsonl", "--seed", "{seed}"),
                 "spans.jsonl", "noised.jsonl"),
        ),
    ),
    Workload(
        name="select-kernels",
        inputs={"scores.json": ScoresSpec(models=400)},
        smoke_inputs={"scores.json": ScoresSpec(models=30)},
        stages=(
            _cli("bsce-select", ("--scores", "scores.json", "--ensemble-size",
                                 str(ENSEMBLE_SIZE), "--out", "selection.json"),
                 None, "selection.json"),
            Stage("attention", ("--seed", "{seed}", "--reps", str(KERNEL_REPS),
                                "--out", "attention.json"), None, ()),
        ),
    ),
)}

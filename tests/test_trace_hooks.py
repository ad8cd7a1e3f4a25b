"""The benchmark's traced run wraps chatmt functions by name
(perfbench/tracer.py's install()). A renamed or removed target only
shows up there as a warning, so this checks that every one exists, and
that each fires: a caller that reached a hooked function through a
reference of its own would leave its span silent."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _child(code: str, cwd) -> str:
    """The stdout of code run in a child process, so that the wrapped
    functions stay out of this one; -B, so that importing the tracer
    writes no bytecode under perfbench/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-B", "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_every_trace_hook_target_exists():
    code = "import json, tracer; print(json.dumps(tracer.install(tracer.Tracer())))"
    assert json.loads(_child(code, ROOT)) == []


# Each stage once through chatmt.cli.main, then each kernel once; prints
# the names of the spans recorded.
_RUN_EVERY_LAYER = """
import json
import numpy as np
import tracer
t = tracer.Tracer()
tracer.install(t)
from chatmt import attention, cli
for argv in (["filter", "--in", "bitext.tsv", "--out", "f.tsv"],
             ["chatprep", "--in", "chat.jsonl", "--out", "p.tsv"],
             ["denoise", "--in", "bitext.tsv", "--out", "n.tsv"],
             ["bsce-select", "--scores", "scores.json", "--ensemble-size", "1", "--out", "s.json"]):
    assert cli.main([*argv, "--report", "r.json"]) == 0, argv
rng = np.random.default_rng(0)
ffn = attention.FfnParams(w1=rng.normal(size=(4, 6)), b1=rng.normal(size=6),
                          w2=rng.normal(size=(6, 4)), b2=rng.normal(size=4))
attention.aan_context(rng.normal(size=(3, 4)), ffn)
attention.standard_attention(*(rng.normal(size=(3, 4)) for _ in range(3)))
attention.talking_heads_attention(*(rng.normal(size=(2, 3, 4)) for _ in range(3)),
                                  np.eye(2), np.eye(2))
print(json.dumps(sorted({t.names[i] for i in t.name})))
"""


def test_every_trace_hook_fires(tmp_path):
    turn = {"dialogue_id": "d", "speaker": "customer", "src_text": "Hallo",
            "tgt_text": "Hello", "src_lang": "de", "tgt_lang": "en"}
    (tmp_path / "bitext.tsv").write_text("good morning\tguten Morgen\nsee you\tbis bald\n")
    (tmp_path / "chat.jsonl").write_text("".join(
        json.dumps({**turn, "turn_index": i}) + "\n" for i in range(2)))
    (tmp_path / "scores.json").write_text(json.dumps(
        {"models": ["a", "b"], "comet": [0.1, 0.2], "pairwise": [[0, 0.5], [0.5, 0]]}))
    recorded = set(json.loads(_child(_RUN_EVERY_LAYER, tmp_path)))
    expected = {
        "cli.read", "cli.write", "corpus.parse", "corpus.serialize", "filtering.normalize",
        "filtering.filter_corpus", "chatprep.prepare", "denoise.choose_pairs",
        "denoise.denoise_corpus", "ensemble.load", "ensemble.select", "attention.aan",
        "attention.standard", "attention.talking_heads",
    }
    assert expected - recorded == set()

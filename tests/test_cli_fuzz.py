"""Fuzz every subcommand through `main`: random bytes, random JSON and
near-valid records must each map to exit 0, 1 or 2 with no exception and
no traceback. A failed run changes no file (outputs that existed before
keep their bytes) and leaves no temp file, and a run that succeeds
changes only its outputs. filter, chatprep, denoise, the pipeline's
fixed config and bsce-select on a valid scores file also exit as the
oracle does on the same files: 0 with its output bytes, or 2 with its
error line."""
import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import assume, example, given, settings, strategies as st

import oracle
from chatmt.chatprep import MIXED_LANGUAGE, SAME_LANGUAGE, RESERVED_TAGS, ContextConfig
from chatmt.cli import main
from chatmt.denoise import DenoiseConfig
from chatmt.filtering import FilterConfig
from oracle import outcome
from test_cli import CHAT_LINES

FUZZ = settings(max_examples=60, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Text that tends to break a line format: tabs, newlines, tags, surrogates.
nasty_text = st.lists(
    st.sampled_from(["a", "b c", " ", "  ", "\t", "\n", "\r", "\ud800", "\xe9", "",
                     *RESERVED_TAGS]),
    max_size=6,
).map("".join)

BITEXT_RECORD = {"source": "guten tag", "target": "<agent> good day <context begins> hi",
                 "origin": "genuine", "target_payload_span": [1, 3]}
SCORES = {"models": ["a", "b", "c"], "comet": [0.7, 0.8, 0.75],
          "pairwise": [[0, 1.0, 0.8], [1.0, 0, 0.9], [0.8, 0.9, 0]]}
PIPELINE = {
    "seed": 3,
    "filter": {"input": "bitext.jsonl", "output": "f.jsonl", "max_words": 5},
    "chatprep": {"input": "chat.jsonl", "output": "p.jsonl", "n_prev": 2, "mode": "mixed"},
    "denoise": {"output": "n.jsonl", "format": "jsonl", "pair_fraction": 1.0},
}
# PIPELINE's stage configs, for the oracle.
PIPELINE_CONFIGS = (FilterConfig(max_words=5), ContextConfig(n_prev=2, mode=MIXED_LANGUAGE),
                    DenoiseConfig(pair_fraction=1.0, seed=3))


def near_valid(record: dict):
    """The record with one field dropped or replaced by JSON or nasty text."""
    keys = st.sampled_from(sorted(record))
    return st.one_of(
        keys.map(lambda k: {f: v for f, v in record.items() if f != k}),
        st.tuples(keys, json_values | nasty_text).map(lambda kv: {**record, kv[0]: kv[1]}),
    )


def jsonl(records) -> bytes:
    # ensure_ascii writes a lone surrogate as a \u escape.
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def jsonl_files(record: dict):
    """Random bytes, random JSON lines, or valid records with near-valid
    ones among them."""
    return st.one_of(
        st.binary(max_size=200),
        st.lists(json_values, max_size=4).map(jsonl),
        st.lists(st.just(record) | near_valid(record), min_size=1, max_size=5).map(jsonl),
    )


tsv_files = st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(nasty_text, nasty_text), max_size=5).map(
        lambda rows: "".join(f"{s}\t{t}\n" for s, t in rows).encode("utf-8", "surrogatepass")),
)


def snapshot(d: str) -> dict:
    """Each entry of d: a symlink's target, or a file's bytes."""
    out = {}
    for name in os.listdir(d):
        path = os.path.join(d, name)
        if os.path.islink(path):
            out[name] = ("symlink", os.readlink(path))
        else:
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def sentinels(names) -> dict[str, bytes]:
    """Files named like outputs, each holding bytes no run writes."""
    return {name: b"sentinel " + name.encode() + b"\n" for name in names}


def run_in(files: dict[str, bytes], argv: list[str], outputs: set[str], expected=None) -> None:
    """Run `argv` in a fresh working directory holding `files`, then check
    the exit code, stderr and which files were created, changed or removed:
    only `outputs`, and only by a run that succeeds. `expected(files)`, if
    given, is the oracle's run: the output bytes by file name, or the
    CorpusError the run must exit 2 with."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(data)
        before = snapshot(d)
        err = io.StringIO()
        os.chdir(d)
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        after = snapshot(d)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    changed = {name for name in before.keys() | after.keys()
               if before.get(name) != after.get(name)}
    assert changed <= (outputs if code == 0 else set()), err.getvalue()
    if expected is not None:
        want = outcome(expected, files)
        if want[0] == "ok":
            assert (code, {name: after.get(name) for name in want[1]}) == (0, want[1]), \
                err.getvalue()
        else:
            assert (code, err.getvalue()) == (2, f"data error: {want[1]}\n")


@FUZZ
@given(st.sampled_from(["tsv", "jsonl"]), st.sampled_from(["fail_fast", "skip_and_count"]),
       st.booleans(), st.data())
def test_fuzz_filter(fmt, mode, out_exists, data):
    content = data.draw(tsv_files if fmt == "tsv" else jsonl_files(BITEXT_RECORD))
    run_in({f"in.{fmt}": content, **sentinels(["out.tsv"] if out_exists else [])},
           ["filter", "--in", f"in.{fmt}", "--out", "out.tsv", "--fail-mode", mode],
           {"out.tsv"}, lambda files: {"out.tsv": oracle.run_filter(
               files[f"in.{fmt}"], fmt, "tsv", FilterConfig(), mode)})


@st.composite
def chat_files(draw) -> bytes:
    """Valid chat JSONL, shuffled: a few dialogues of up to 8 turns, each
    turn's languages in either order, so that every context length and
    both sides of the mixed mode occur."""
    words = st.lists(st.sampled_from(["hallo", "a b", "\xfc", "wie geht's"]), min_size=1,
                     max_size=3).map(" ".join)
    records = [{"dialogue_id": f"d{d}", "turn_index": turn,
                "speaker": draw(st.sampled_from(["agent", "customer"])),
                "src_text": draw(words), "tgt_text": draw(words),
                **dict(zip(("src_lang", "tgt_lang"), draw(st.permutations(["de", "en"]))))}
               for d in range(draw(st.integers(1, 3))) for turn in range(draw(st.integers(1, 8)))]
    return jsonl(draw(st.permutations(records)))


@FUZZ
@given(jsonl_files(CHAT_LINES[1]) | chat_files(), st.sampled_from(["same", "mixed"]),
       st.integers(0, 3), st.sampled_from(["on", "off"]))
def test_fuzz_chatprep(content, mode, n_prev, tags):
    cfg = ContextConfig(n_prev, SAME_LANGUAGE if mode == "same" else MIXED_LANGUAGE, tags == "on")
    run_in({"chat.jsonl": content},
           ["chatprep", "--in", "chat.jsonl", "--out", "out.tsv", "--mode", mode,
            "--n-prev", str(n_prev), "--speaker-tags", tags], {"out.tsv"},
           lambda files: {"out.tsv": oracle.run_chatprep(files["chat.jsonl"], "tsv", cfg)})


@st.composite
def denoise_files(draw, fmt: str) -> bytes:
    """A valid denoise input: 1-6 records whose targets are chat lines
    with a payload (a leading tag or none, a context tail or none); a JSONL
    record may instead carry an in-range target_payload_span."""
    words = st.lists(st.sampled_from(["hi", "good day", "\xe9t\xe9", "a  b", "x"]),
                     min_size=1, max_size=4).map(" ".join)
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        source = draw(words)
        target = draw(st.sampled_from(["", "<agent> ", "<customer> ", "<BT> "])) + draw(words)
        if draw(st.booleans()):
            target += " <context begins> " + draw(words)
        if fmt == "tsv":
            lines.append(f"{source}\t{target}\n".encode())
            continue
        record = {"source": source, "target": target,
                  "origin": draw(st.sampled_from(["genuine", "synthetic"]))}
        if draw(st.booleans()):
            tokens = len(target.split(" "))
            start = draw(st.integers(0, tokens))
            record["target_payload_span"] = [start, draw(st.integers(start, tokens))]
        lines.append(jsonl([record]))
    return b"".join(lines)


@FUZZ
@given(st.sampled_from(["tsv", "jsonl"]), st.booleans(), st.data())
def test_fuzz_denoise(fmt, out_exists, data):
    content = data.draw((tsv_files if fmt == "tsv" else jsonl_files(BITEXT_RECORD))
                        | denoise_files(fmt))
    cfg = DenoiseConfig(pair_fraction=1.0, token_prob=0.5)
    run_in({f"in.{fmt}": content, **sentinels(["out.jsonl"] if out_exists else [])},
           ["denoise", "--in", f"in.{fmt}", "--out", "out.jsonl",
            "--pair-fraction", "1.0", "--token-prob", "0.5"], {"out.jsonl"},
           lambda files: {"out.jsonl": oracle.run_denoise(files[f"in.{fmt}"], fmt, "jsonl", cfg)})


@st.composite
def scores_files(draw) -> tuple[bytes, int]:
    """A valid scores file: 2-40 models with unique ids and finite scores
    from the whole float range, some shared so that ties occur; and an
    ensemble size in range. About one file in ten may hold ids with lone
    surrogates, which the run refuses."""
    n = draw(st.integers(2, 40))
    chars = st.characters(blacklist_categories=("Cs",))
    if draw(st.integers(0, 9)) == 0:
        chars |= st.characters(whitelist_categories=("Cs",))
    ids = draw(st.lists(st.text(chars, max_size=4), min_size=n, max_size=n, unique=True))
    # ±the largest float makes weighted scores beyond float range common.
    shared = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308]),
                           min_size=1, max_size=6))
    # n*n hypothesis floats would overrun its buffer: the rest come from
    # a seeded RNG, at any exponent.
    rng = draw(st.randoms(use_true_random=False))

    def score():
        if rng.random() < 0.5:
            return rng.choice(shared)
        return math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1024))

    scores = {"models": ids, "comet": [score() for _ in range(n)],
              "pairwise": [[score() for _ in range(n)] for _ in range(n)]}
    return json.dumps(scores).encode(), draw(st.integers(1, n))


@FUZZ
@given(st.booleans(), st.data())
def test_fuzz_bsce_select(valid, data):
    expected = None
    if valid:
        content, size = data.draw(scores_files())
        expected = lambda files: {"sel.json": oracle.run_bsce(files["scores.json"], size)}
    else:
        content = data.draw(st.one_of(st.binary(max_size=200),
                                      json_values.map(json.dumps).map(str.encode),
                                      near_valid(SCORES).map(json.dumps).map(str.encode)))
        size = data.draw(st.integers(0, 4))
    run_in({"scores.json": content},
           ["bsce-select", "--scores", "scores.json", "--ensemble-size", str(size),
            "--out", "sel.json"], {"sel.json"}, expected)


pipeline_configs = st.one_of(
    st.just(PIPELINE),
    near_valid(PIPELINE),
    st.sampled_from(["filter", "chatprep", "denoise"]).flatmap(
        lambda stage: near_valid(PIPELINE[stage]).map(lambda sec: {**PIPELINE, stage: sec})),
    json_values,
)


# Every pipeline path a run writes, with the name it gets when nothing
# collides, and every path it reads.
WRITTEN = {"filter.output": "f.jsonl", "chatprep.output": "p.jsonl",
           "denoise.output": "n.jsonl", "--report": "r.json"}
READ = {"filter.input": "bitext.jsonl", "chatprep.input": "chat.jsonl", "config": "cfg.json"}


@FUZZ
# Configs equal to PIPELINE under Python's == that chatmt refuses (exit 1).
@example(b"", b"", {**PIPELINE, "denoise": {**PIPELINE["denoise"], "pair_fraction": True}},
         set(), False)
@example(b"", b"", {**PIPELINE, "seed": 3.0}, set(), False)
@given(jsonl_files(BITEXT_RECORD) | denoise_files("jsonl"), jsonl_files(CHAT_LINES[1]) | chat_files(),
       pipeline_configs,
       st.sets(st.sampled_from(sorted(WRITTEN.values()))), st.booleans())
def test_fuzz_pipeline(bitext, chat, config, existing, with_report):
    sections = config.values() if isinstance(config, dict) else ()
    outputs = {s["output"] for s in sections if isinstance(s, dict) and isinstance(s.get("output"), str)}
    argv = ["pipeline", "cfg.json"] + (["--report", "r.json"] if with_report else [])
    expected = None
    if json.dumps(config, sort_keys=True) == json.dumps(PIPELINE, sort_keys=True):
        expected = lambda files: dict(zip(("f.jsonl", "p.jsonl", "n.jsonl"), oracle.run_pipeline(
            files["bitext.jsonl"], files["chat.jsonl"], "jsonl", *PIPELINE_CONFIGS)))
    run_in({"bitext.jsonl": bitext, "chat.jsonl": chat, "cfg.json": json.dumps(config).encode(),
            **sentinels(existing)},
           argv, outputs | ({"r.json"} if with_report else set()), expected)


@FUZZ
@given(st.sampled_from(sorted(WRITTEN)), st.sampled_from(sorted({**WRITTEN, **READ})),
       st.sampled_from(["same", "dot", "symlink"]), st.booleans())
def test_fuzz_colliding_pipeline_paths(written, target, spelling, with_report):
    """A stage output or --report that names an input, another output or
    the config (as the same name, a ./ name or a symlink) exits 1 naming
    both paths, and changes no file."""
    assume(written != target)
    paths = {**WRITTEN, **READ}
    target_path = paths[target]
    paths[written] = {"same": target_path, "dot": "./" + target_path,
                      "symlink": "link." + target_path}[spelling]
    config = {"seed": 3,
              "filter": {"input": paths["filter.input"], "output": paths["filter.output"]},
              "chatprep": {"input": paths["chatprep.input"], "output": paths["chatprep.output"]},
              "denoise": {"output": paths["denoise.output"], "pair_fraction": 1.0}}
    argv = ["pipeline", "cfg.json"]
    if with_report or "--report" in (written, target):
        argv += ["--report", paths["--report"]]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, data in (("bitext.jsonl", jsonl([BITEXT_RECORD] * 3)),
                           ("chat.jsonl", jsonl(CHAT_LINES)),
                           ("cfg.json", json.dumps(config).encode())):
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(data)
        if spelling == "symlink":
            os.symlink(target_path, os.path.join(d, paths[written]))
        before = snapshot(d)
        err = io.StringIO()
        os.chdir(d)
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        after = snapshot(d)
    message = err.getvalue()
    assert code == 1, message
    assert "is the same file as" in message and "Traceback" not in message
    assert f" {paths[written]} " in message and f" {target_path} " in message, message
    assert after == before

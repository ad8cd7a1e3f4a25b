"""Fuzz every subcommand through `main`: random bytes, random JSON and
near-valid records must each map to exit 0, 1 or 2 with no exception and
no traceback. A failed run changes no file (outputs that existed before
keep their bytes) and leaves no temp file, and a run that succeeds
changes only its outputs. filter, chatprep, denoise, the pipeline's
fixed config in each of its chatprep and denoise output suffixes and
formats (on valid corpora), and bsce-select on a valid scores file also
exit as the oracle does on the same files: 0 with its output bytes, or 2
with its error line."""
import itertools
import json
import math

from hypothesis import assume, example, given, settings, strategies as st

import oracle
from chatmt.chatprep import MIXED_LANGUAGE, SAME_LANGUAGE, RESERVED_TAGS, ContextConfig
from chatmt.denoise import DenoiseConfig
from chatmt.filtering import FilterConfig
from conftest import run_in, sentinels
from test_cli import CHAT_LINES

# Tier-1 draws 60 examples a test; the sweep profile (tests/conftest.py)
# draws its own count.
FUZZ = (settings(deadline=None) if settings.get_current_profile_name() == "sweep"
        else settings(max_examples=60, deadline=None))

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


@FUZZ
@given(st.sampled_from(["tsv", "jsonl"]), st.sampled_from(["fail_fast", "skip_and_count"]),
       st.booleans(), st.data())
def test_fuzz_filter(fmt, mode, out_exists, data):
    content = data.draw(tsv_files if fmt == "tsv" else jsonl_files(BITEXT_RECORD))
    run_in({f"in.{fmt}": content, **sentinels(["out.tsv"] if out_exists else [])},
           ["filter", "--in", f"in.{fmt}", "--out", "out.tsv", "--fail-mode", mode],
           {"out.tsv"}, lambda files: {"out.tsv": oracle.run_filter(
               files[f"in.{fmt}"], fmt, "tsv", FilterConfig(fail_mode=mode))})


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
    # a seeded RNG, at any exponent that keeps ±1.0 finite.
    rng = draw(st.randoms(use_true_random=False))

    def score():
        if rng.random() < 0.5:
            return rng.choice(shared)
        return math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1023))

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


def _variant(chat_out: str, chat_fmt, den_out: str, den_fmt) -> dict:
    """PIPELINE with chatprep's and denoise's output and format (None: no
    `format` key) replaced."""
    sections = {}
    for stage, output, fmt in (("chatprep", chat_out, chat_fmt), ("denoise", den_out, den_fmt)):
        section = {key: value for key, value in PIPELINE[stage].items() if key != "format"}
        sections[stage] = {**section, "output": output, **({"format": fmt} if fmt else {})}
    return {**PIPELINE, **sections}


# PIPELINE is one of its variants. A config is held to the oracle when it
# is one of them as JSON (Python's == takes True for 1.0).
PIPELINE_VARIANTS = [_variant(*v) for v in itertools.product(
    ["p.tsv", "p.jsonl"], [None, "tsv", "jsonl"], ["n.tsv", "n.jsonl"], [None, "tsv", "jsonl"])]
_VARIANTS_JSON = {json.dumps(v, sort_keys=True) for v in PIPELINE_VARIANTS}


def _stage_format(section: dict) -> str:
    """The format a valid stage section names, or its output's suffix."""
    return section.get("format") or section["output"].rsplit(".", 1)[1]


# Near-valid or random configs, which are not held to the oracle.
other_configs = st.one_of(
    near_valid(PIPELINE),
    st.sampled_from(["filter", "chatprep", "denoise"]).flatmap(
        lambda stage: near_valid(PIPELINE[stage]).map(lambda sec: {**PIPELINE, stage: sec})),
    json_values,
)
# About half the configs drawn are variants, held to the oracle: as one
# more branch of st.one_of, they were 56-99 of 300 seeded draws.
pipeline_configs = st.booleans().flatmap(
    lambda held: st.sampled_from(PIPELINE_VARIANTS) if held else other_configs)


# Every pipeline path a run writes, with the name it gets when nothing
# collides, and every path it reads.
WRITTEN = {"filter.output": "f.jsonl", "chatprep.output": "p.jsonl",
           "denoise.output": "n.jsonl", "--report": "r.json"}
READ = {"filter.input": "bitext.jsonl", "chatprep.input": "chat.jsonl", "config": "cfg.json"}


def _is_variant(config) -> bool:
    return json.dumps(config, sort_keys=True) in _VARIANTS_JSON


@st.composite
def pipeline_runs(draw) -> tuple[bytes, bytes, object]:
    """A config, then its bitext and chat inputs. A config held to the
    oracle gets valid corpora, so that its run reaches denoise."""
    config = draw(pipeline_configs)
    if _is_variant(config):
        return draw(denoise_files("jsonl")), draw(chat_files()), config
    return (draw(jsonl_files(BITEXT_RECORD) | denoise_files("jsonl")),
            draw(jsonl_files(CHAT_LINES[1]) | chat_files()), config)


@FUZZ
# Configs equal to PIPELINE under Python's == that chatmt refuses (exit 1).
@example((b"", b"", {**PIPELINE, "denoise": {**PIPELINE["denoise"], "pair_fraction": True}}),
         set(), False)
@example((b"", b"", {**PIPELINE, "seed": 3.0}), set(), False)
# chatprep writes TSV into p.jsonl; denoise takes its pairs.
@example((jsonl([BITEXT_RECORD]), jsonl(CHAT_LINES), _variant("p.jsonl", "tsv", "n.jsonl", None)),
         set(), False)
# A tab chatprep writes as JSONL, which denoise's TSV refuses: the error
# names the turn's chat line (2), not its line in p.jsonl (1).
@example((jsonl([BITEXT_RECORD]), jsonl([CHAT_LINES[1], {**CHAT_LINES[0], "tgt_text": "a\tb"}]),
          _variant("p.jsonl", None, "n.tsv", None)), set(), False)
@given(pipeline_runs(), st.sets(st.sampled_from(sorted({*WRITTEN.values(), "p.tsv", "n.tsv"}))),
       st.booleans())
def test_fuzz_pipeline(run, existing, with_report):
    bitext, chat, config = run
    sections = config.values() if isinstance(config, dict) else ()
    outputs = {s["output"] for s in sections if isinstance(s, dict) and isinstance(s.get("output"), str)}
    argv = ["pipeline", "cfg.json"] + (["--report", "r.json"] if with_report else [])
    expected = None
    if _is_variant(config):
        stages = [config[stage] for stage in ("filter", "chatprep", "denoise")]
        expected = lambda files: dict(zip([s["output"] for s in stages], oracle.run_pipeline(
            files["bitext.jsonl"], files["chat.jsonl"], *map(_stage_format, stages),
            *PIPELINE_CONFIGS)))
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
    files = {"bitext.jsonl": jsonl([BITEXT_RECORD] * 3), "chat.jsonl": jsonl(CHAT_LINES),
             "cfg.json": json.dumps(config).encode()}
    if spelling == "symlink":
        files[paths[written]] = target_path
    code, message = run_in(files, argv, set())
    assert code == 1 and "is the same file as" in message, message
    assert f" {paths[written]!r} " in message and f" {target_path!r} " in message, message

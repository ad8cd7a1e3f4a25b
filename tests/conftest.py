import contextlib
import io
import os
import random
import tempfile
from dataclasses import fields

import pytest
from hypothesis import settings

import oracle
from chatmt.chatprep import ContextConfig
from chatmt.cli import main
from chatmt.corpus import BitextPair, ChatRecord, Dialogue
from chatmt.denoise import DenoiseConfig
from chatmt.filtering import FilterConfig

# Tier-1 draws the same examples on every run, so its verdict repeats.
# `pytest --hypothesis-profile sweep --hypothesis-seed N` explores instead
# (scripts/check.sh runs tests/test_cli_fuzz.py so for N = 1..5).
settings.register_profile("tier1", derandomize=True)
settings.register_profile("sweep", max_examples=200)
settings.load_profile("tier1")


def make_micro_corpus():
    """10 pairs: 7 clean, 1 overlong sentence, 1 exact duplicate, 1 ratio
    violator. Expected outcome: kept=7, drops {length:1, dedup:1, ratio:1}."""
    pairs = [
        BitextPair("hello there", "hallo du"),
        BitextPair("how are you", "wie geht es dir"),
        BitextPair(" ".join(["a"] * 101), "zu lang"),          # length
        BitextPair("good morning", "guten Morgen"),
        BitextPair("hello there", "hallo du"),                  # dedup
        BitextPair("thanks", "danke sehr gerne vielen lieben"),  # ratio 1:5
        BitextPair("see you soon", "bis bald"),
        BitextPair("the weather is nice", "das Wetter ist gut"),
        BitextPair("one two three four", "eins zwei drei vier"),
        BitextPair("good night", "gute Nacht"),
    ]
    assert len(pairs) == 10
    return pairs


@pytest.fixture
def micro_corpus():
    return make_micro_corpus()


_WORDS = ["hallo", "guten", "tag", "wie", "geht", "es", "dir", "danke",
          "bitte", "ja", "nein", "morgen", "abend", "hilfe", "problem"]


def random_payload(rng: random.Random, max_words: int = 6) -> str:
    return " ".join(rng.choices(_WORDS, k=rng.randint(1, max_words)))


def make_dialogue(rng: random.Random, dialogue_id: str, n_turns: int | None = None,
                  src_lang: str = "de", tgt_lang: str = "en") -> Dialogue:
    n_turns = n_turns or rng.randint(1, 6)
    turns = tuple(
        ChatRecord(
            dialogue_id=dialogue_id,
            turn_index=i,
            speaker=rng.choice(["agent", "customer"]),
            src_text=random_payload(rng),
            tgt_text=random_payload(rng),
            src_lang=src_lang,
            tgt_lang=tgt_lang,
        )
        for i in range(n_turns)
    )
    return Dialogue(dialogue_id=dialogue_id, turns=turns)


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


def run_in(files: dict[str, bytes | str], argv: list[str], outputs: set[str],
           expected=None) -> tuple[int, str]:
    """Run `argv` in a fresh working directory holding `files` (bytes, or
    a str: a symlink to that path), then check the exit code, stderr and
    which files were created, changed or removed: only `outputs`, and only
    by a run that succeeds. `expected(files)`, if given, is the oracle's
    run: the output bytes by file name, or the CorpusError the run must
    exit 2 with. Returns the exit code and stderr."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            if isinstance(data, str):
                os.symlink(data, os.path.join(d, name))
                continue
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
        want = oracle.outcome(expected, files)
        if want[0] == "ok":
            assert (code, {name: after.get(name) for name in want[1]}) == (0, want[1]), \
                err.getvalue()
        else:
            assert (code, err.getvalue()) == (2, f"data error: {want[1]}\n")
    return code, err.getvalue()


# A flag's text as its config field's value, by the field's type.
_FLAG_VALUES = {"int": int, "float": float, "bool": {"on": True, "off": False}.__getitem__}


def oracle_outputs(argv: list[str]):
    """The oracle's run of a filter, chatprep, denoise or bsce-select
    command line, as `run_in` takes it: files -> output bytes by name.
    Formats follow the file suffixes; every other flag but `--report` and
    filter's `--fail-mode` is a config field."""
    command, *rest = argv
    flags = dict(zip(rest[::2], rest[1::2]))
    flags.pop("--report", None)
    out = flags.pop("--out")
    if command == "bsce-select":
        scores, size = flags.pop("--scores"), int(flags.pop("--ensemble-size"))
        return lambda files: {out: oracle.run_bsce(files[scores], size)}
    src = flags.pop("--in")
    fail_mode = flags.pop("--fail-mode", "fail_fast")
    config_cls = {"filter": FilterConfig, "chatprep": ContextConfig,
                  "denoise": DenoiseConfig}[command]
    types = {f.name: f.type for f in fields(config_cls)}
    values = {flag[2:].replace("-", "_"): text for flag, text in flags.items()}
    cfg = config_cls(**{name: _FLAG_VALUES[types[name]](text) for name, text in values.items()})
    in_fmt, out_fmt = (path.rsplit(".", 1)[1] for path in (src, out))
    run = {"filter": lambda data: oracle.run_filter(data, in_fmt, out_fmt, cfg, fail_mode),
           "chatprep": lambda data: oracle.run_chatprep(data, out_fmt, cfg),
           "denoise": lambda data: oracle.run_denoise(data, in_fmt, out_fmt, cfg)}[command]
    return lambda files: {out: run(files[src])}

import json

import pytest

from chatmt.cli import main
from chatmt.corpus import write_bitext
from conftest import make_micro_corpus


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse --version / --help paths
        return exc.code


def write_micro_corpus(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(write_bitext(make_micro_corpus(), "tsv"))


CHAT_LINES = [
    {"dialogue_id": "d1", "turn_index": 0, "speaker": "customer",
     "src_text": "Hallo", "tgt_text": "Hello", "src_lang": "de", "tgt_lang": "en"},
    {"dialogue_id": "d1", "turn_index": 1, "speaker": "agent",
     "src_text": "Wie kann ich helfen?", "tgt_text": "How can I help?",
     "src_lang": "de", "tgt_lang": "en"},
    {"dialogue_id": "d2", "turn_index": 0, "speaker": "customer",
     "src_text": "Guten Morgen", "tgt_text": "Good morning",
     "src_lang": "de", "tgt_lang": "en"},
]


def write_chat(path):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in CHAT_LINES:
            fh.write(json.dumps(obj) + "\n")


def test_version():
    assert run(["--version"]) == 0


def test_unknown_flag_exits_1(tmp_path):
    assert run(["filter", "--no-such-flag"]) == 1


def test_missing_subcommand_exits_1():
    assert run([]) == 1


def test_filter_micro_corpus(tmp_path):
    src = tmp_path / "in.tsv"
    out = tmp_path / "out.tsv"
    report = tmp_path / "report.json"
    write_micro_corpus(src)
    code = run(["filter", "--in", str(src), "--out", str(out),
                "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["kept_count"] == 7
    assert rep["dropped_by_rule"] == {"length": 1, "dedup": 1, "ratio": 1}
    assert len(out.read_text().splitlines()) == 7


def test_filter_missing_input_exits_1(tmp_path):
    assert run(["filter", "--in", str(tmp_path / "nope.tsv"),
                "--out", str(tmp_path / "o.tsv")]) == 1


def test_filter_malformed_data_exits_2(tmp_path):
    src = tmp_path / "in.tsv"
    src.write_text("no tab here\n", encoding="utf-8")
    assert run(["filter", "--in", str(src), "--out", str(tmp_path / "o.tsv")]) == 2


def test_filter_skip_mode(tmp_path):
    src = tmp_path / "in.tsv"
    src.write_text("a\tb\nbroken\nc\td\n", encoding="utf-8")
    report = tmp_path / "r.json"
    code = run(["filter", "--in", str(src), "--out", str(tmp_path / "o.tsv"),
                "--fail-mode", "skip_and_count", "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["parse_skipped"] == 1


def test_chatprep_outputs_context_lines(tmp_path):
    chat = tmp_path / "chat.jsonl"
    out = tmp_path / "out.tsv"
    write_chat(chat)
    code = run(["chatprep", "--in", str(chat), "--out", str(out),
                "--n-prev", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "<customer> Hallo\t<customer> Hello"
    assert lines[1] == (
        "<agent> Wie kann ich helfen? <context begins> Hallo\t"
        "<agent> How can I help? <context begins> Hello"
    )
    assert lines[2] == "<customer> Guten Morgen\t<customer> Good morning"


def test_denoise_deterministic(tmp_path):
    src = tmp_path / "in.tsv"
    lines = [f"src {i}\t" + " ".join(f"w{i}_{j}" for j in range(8)) + "\n"
             for i in range(100)]
    src.write_text("".join(lines), encoding="utf-8")
    outs = []
    for name in ("a.tsv", "b.tsv", "c.tsv"):
        out = tmp_path / name
        assert run(["denoise", "--in", str(src), "--out", str(out), "--seed", "7"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert outs[0] != src.read_bytes()


def test_denoise_jsonl_span_passthrough(tmp_path):
    src = tmp_path / "in.jsonl"
    rec = {"source": "s", "target": "keep a b c d e keep2",
           "target_payload_span": [1, 6]}
    src.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["denoise", "--in", str(src), "--out", str(out),
                "--seed", "3", "--pair-fraction", "1.0", "--token-prob", "1.0"]) == 0
    obj = json.loads(out.read_text())
    tokens = obj["target"].split(" ")
    assert tokens[0] == "keep" and tokens[-1] == "keep2"
    assert obj["target_payload_span"] == [1, 6]


GOOD_JSONL = '{"source": "s", "target": "a b c", "target_payload_span": [0, 3]}'


@pytest.mark.parametrize("bad", [
    '{"source": "s"}',
    '[1, 2]',
    '{"source": "s", "target": "a b c", "target_payload_span": ["x", 2]}',
    '{"source": "s", "target": "a b c", "target_payload_span": [true, 2]}',
    '{"source": "s", "target": "a b c", "target_payload_span": [1, 4]}',
    '{"source": "s", "target": "a b c", "origin": "weird"}',
], ids=["no_target", "not_object", "span_str", "span_bool", "span_past_end", "bad_origin"])
def test_denoise_bad_jsonl_exits_2(tmp_path, capsys, bad):
    src = tmp_path / "in.jsonl"
    src.write_text(f"{GOOD_JSONL}\n{bad}\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["denoise", "--in", str(src), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


def test_bsce_select(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "models": ["m1", "m2", "m3"],
        "comet": [0.70, 0.80, 0.75],
        "pairwise": [[0, 1.00, 0.80], [1.00, 0, 0.90], [0.80, 0.90, 0]],
    }), encoding="utf-8")
    out = tmp_path / "sel.json"
    assert run(["bsce-select", "--scores", str(scores),
                "--ensemble-size", "2", "--out", str(out)]) == 0
    sel = json.loads(out.read_text())
    assert sel["selected"] == ["m3", "m1"]


def test_bsce_ensemble_size_zero_exits_1(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "models": ["a", "b"], "comet": [0.1, 0.2],
        "pairwise": [[0, 0.5], [0.5, 0]],
    }), encoding="utf-8")
    assert run(["bsce-select", "--scores", str(scores), "--ensemble-size", "0"]) == 1


def test_kernels_check(capsys):
    assert run(["kernels-check"]) == 0
    assert "max abs deviation" in capsys.readouterr().out


def make_pipeline_config(tmp_path, seed=11):
    bitext = tmp_path / "bitext.tsv"
    chat = tmp_path / "chat.jsonl"
    write_micro_corpus(bitext)
    write_chat(chat)
    cfg = {
        "seed": seed,
        "filter": {"input": str(bitext), "output": str(tmp_path / "filtered.tsv")},
        "chatprep": {"input": str(chat), "output": str(tmp_path / "prepped.tsv"),
                     "n_prev": 2, "mode": "same", "speaker_tags": True},
        "denoise": {"output": str(tmp_path / "noised.tsv"),
                    "pair_fraction": 0.5, "token_prob": 0.5},
    }
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, [tmp_path / n for n in ("filtered.tsv", "prepped.tsv", "noised.tsv")]


def test_pipeline_runs_and_is_deterministic(tmp_path):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    report = tmp_path / "report.json"
    assert run(["pipeline", str(cfg_path), "--report", str(report)]) == 0
    first = [p.read_bytes() for p in outputs]
    assert run(["pipeline", str(cfg_path)]) == 0
    second = [p.read_bytes() for p in outputs]
    assert first == second
    rep = json.loads(report.read_text())
    assert [s["command"] for s in rep["stages"]] == ["filter", "chatprep", "denoise"]


def test_pipeline_missing_input_exits_1_before_writes(tmp_path):
    cfg = {
        "filter": {"input": str(tmp_path / "missing.tsv"),
                   "output": str(tmp_path / "f.tsv")},
        "chatprep": {"input": str(tmp_path / "missing.jsonl"),
                     "output": str(tmp_path / "p.tsv")},
        "denoise": {"output": str(tmp_path / "n.tsv")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(path)]) == 1
    assert not (tmp_path / "f.tsv").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg["filter"].update(max_wrods=50), "max_wrods"),
    (lambda cfg: cfg.update(fail_mode="bogus"), "fail_mode"),
    (lambda cfg: cfg.update(stages=[]), "stages"),
    (lambda cfg: cfg.update(chatprep=[]), "chatprep"),
    (lambda cfg: cfg["chatprep"].update(speaker_tags="yes"), "speaker_tags"),
])
def test_pipeline_bad_config_exits_1_before_writes(tmp_path, capsys, edit, named):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    edit(cfg)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 1
    assert named in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


def test_pipeline_top_level_array_exits_1(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[]", encoding="utf-8")
    assert run(["pipeline", str(path)]) == 1


def test_atomic_write_no_partial_output(tmp_path):
    # a data error mid-stage must not leave the destination file behind
    src = tmp_path / "in.tsv"
    src.write_text("ok\tfine\nbad line\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
def test_filter_non_finite_max_ratio_exits_1(tmp_path, capsys, ratio):
    src = tmp_path / "in.tsv"
    src.write_text("one\ta b c d e f g h\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out), f"--max-ratio={ratio}"]) == 1
    assert "max_ratio" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, key, value, named", [
    ("filter", "max_words", "100", "max_sentence_words"),
    ("filter", "max_word_chars", 40.0, "max_word_chars"),
    ("filter", "max_ratio", True, "max_ratio"),
    ("chatprep", "n_prev", "2", "n_prev"),
    ("chatprep", "mode", 1, "mode"),
    ("denoise", "seed", 1.5, "seed"),
    ("denoise", "token_prob", "0.15", "token_replace_prob"),
])
def test_pipeline_wrong_typed_option_exits_1(tmp_path, capsys, stage, key, value, named):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg[stage][key] = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not any(p.exists() for p in outputs)


@pytest.mark.parametrize("command, suffix, good", [
    ("filter", ".tsv", b"a\tb\n"),
    ("filter", ".jsonl", b'{"source": "a", "target": "b"}\n'),
    ("denoise", ".tsv", b"a\tb\n"),
    ("chatprep", ".jsonl", json.dumps(CHAT_LINES[0]).encode() + b"\n"),
], ids=["filter-tsv", "filter-jsonl", "denoise-tsv", "chatprep-jsonl"])
@pytest.mark.parametrize("bad_line", [3, 5000])  # inside and past the first read buffer
def test_invalid_utf8_exits_2_with_line(tmp_path, capsys, command, suffix, good, bad_line):
    src = tmp_path / f"in{suffix}"
    src.write_bytes(good * (bad_line - 1) + b"\xff\xfe" + good)
    out = tmp_path / "out.tsv"
    assert run([command, "--in", str(src), "--out", str(out)]) == 2
    assert f"line {bad_line}:" in capsys.readouterr().err
    assert not out.exists()

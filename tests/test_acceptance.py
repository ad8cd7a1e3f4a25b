"""End-to-end acceptance gate: one test per criterion, each printing a
PASS line (visible with pytest -s or in failure output). Tolerances are
pinned here and nowhere else."""
import json
import random
import time

import numpy as np
import pytest

from chatmt.cli import main as cli_main
from chatmt.corpus import BitextPair, write_bitext
from chatmt.chatprep import CONTEXT_TAG, ContextConfig, SEP_TAG, build_context, strip_tags
from chatmt.denoise import DenoiseConfig, choose_pairs, denoise_corpus
from chatmt.ensemble import ScoreSet, select_ensemble
from chatmt.filtering import filter_corpus, normalize_punctuation
from chatmt.attention import FfnParams, aan_context, standard_attention, talking_heads_attention

from conftest import make_dialogue, make_micro_corpus
from test_ensemble import brute_force_select, random_score_set
from test_attention import prefix_mean_oracle


def _report(name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_c1_filter_golden():
    started = time.monotonic()
    kept, report = filter_corpus(make_micro_corpus())
    assert report.kept_count == len(kept) == 7
    assert report.dropped_by_rule == {"length": 1, "dedup": 1, "ratio": 1}
    rekept, rereport = filter_corpus(kept)
    assert rekept == kept and sum(rereport.dropped_by_rule.values()) == 0
    _report("1 filter golden", started, 1.0)


def test_c2_filter_properties():
    started = time.monotonic()
    vocab = ["a", "bb", "ccc", "w" * 41, "“x”", "y…", "a b"]
    rng = random.Random(20220)
    for _ in range(1000):
        pairs = []
        for _ in range(rng.randint(0, 15)):
            src = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
            tgt = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
            pairs.append(BitextPair(src, tgt))
            if pairs and rng.random() < 0.3:
                pairs.append(rng.choice(pairs))
        kept, report = filter_corpus(pairs)
        assert report.input_count == len(pairs)
        assert report.input_count == report.kept_count + sum(
            report.dropped_by_rule.values()
        )
        kept2, report2 = filter_corpus(kept)
        assert kept2 == kept and sum(report2.dropped_by_rule.values()) == 0
        for p in pairs:
            once = normalize_punctuation(p.source)
            assert normalize_punctuation(once) == once
    _report("2 filter properties", started, 30.0)


def test_c3_bsce_worked_trace():
    started = time.monotonic()
    s = ScoreSet.from_lists(
        ["m1", "m2", "m3"],
        [0.70, 0.80, 0.75],
        [[0.0, 1.00, 0.80], [1.00, 0.0, 0.90], [0.80, 0.90, 0.0]],
    )
    scores = select_ensemble(s, 2)
    assert max(abs(a - b) for a, b in zip(scores.weighted_scores, [0.05, 0.10, 0.15])) <= 1e-12
    assert scores.selected == ["m3", "m1"]
    _report("3 bsce worked trace", started, 1.0)


def test_c4_bsce_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20221)
    for _ in range(200):
        s = random_score_set(rng)
        for e in range(1, s.n + 1):
            assert select_ensemble(s, e).selected == brute_force_select(s, e)
    s = random_score_set(rng, n=6)
    base_top = select_ensemble(s, 1).selected[0]
    for _ in range(50):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-2.0, 2.0)
        st = ScoreSet.from_lists(s.model_ids, [a * c + b for c in s.comet], s.pairwise)
        assert select_ensemble(st, 1).selected[0] == base_top
        pair_t = [
            [a * v + b if i != j else 0.0 for j, v in enumerate(row)]
            for i, row in enumerate(s.pairwise)
        ]
        st2 = ScoreSet.from_lists(s.model_ids, s.comet, pair_t)
        assert select_ensemble(st2, 1).selected[0] == base_top
    _report("4 bsce oracle equivalence", started, 30.0)


def _denoise_corpus_pairs(n, n_tokens=30):
    return [
        BitextPair(
            source=f"src {i}",
            target=" ".join(f"w{i}_{j}" for j in range(n_tokens)),
        )
        for i in range(n)
    ]


def test_c5_denoise_statistics(tmp_path):
    started = time.monotonic()
    n = 10_000
    pairs = _denoise_corpus_pairs(n)
    cfg = DenoiseConfig(seed=42)
    chosen = choose_pairs(n, cfg)
    assert len(chosen) == 3000
    out = denoise_corpus(pairs, cfg)
    assert out == denoise_corpus(pairs, cfg)  # two runs identical
    replaced = total = 0
    for i, (a, b) in enumerate(zip(pairs, out)):
        assert a.source == b.source
        if i not in chosen:
            assert a == b
            continue
        ta, tb = a.target.split(" "), b.target.split(" ")
        assert len(ta) == len(tb)
        replaced += sum(x != y for x, y in zip(ta, tb))
        total += len(ta)
    rate = replaced / total
    assert 0.14 <= rate <= 0.16, f"observed replacement rate {rate:.4f}"

    # run-to-run byte invariance through the CLI
    src = tmp_path / "in.tsv"
    with open(src, "w", encoding="utf-8") as fh:
        fh.writelines(write_bitext(pairs, "tsv"))
    blobs = []
    for name in ("run1.tsv", "run2.tsv"):
        dst = tmp_path / name
        assert cli_main(["denoise", "--in", str(src), "--out", str(dst),
                         "--seed", "42"]) == 0
        blobs.append(dst.read_bytes())
    assert blobs[0] == blobs[1] == "".join(write_bitext(out, "tsv")).encode("utf-8")
    _report("5 denoise statistics", started, 30.0)


def test_c6_chatprep_roundtrip():
    started = time.monotonic()
    rng = random.Random(20222)
    for i in range(1000):
        d = make_dialogue(rng, f"d{i}")
        for mode in ("same_language", "mixed_language"):
            for n_prev in range(4):
                cfg = ContextConfig(n_prev=n_prev, mode=mode)
                for r in d.turns:
                    pair = build_context(d, r.turn_index, cfg)
                    k = min(n_prev, r.turn_index)
                    assert strip_tags(pair.source) == r.src_text
                    assert strip_tags(pair.target) == r.tgt_text
                    for side in (pair.source, pair.target):
                        assert side.count(CONTEXT_TAG) == (1 if k else 0)
                        assert side.count(SEP_TAG) == max(k - 1, 0)
                if n_prev > 0:
                    for r in d.turns:
                        if r.turn_index < n_prev:
                            continue
                        shorter = build_context(
                            d, r.turn_index, ContextConfig(n_prev=n_prev - 1, mode=mode)
                        )
                        assert pair_prefix(shorter, build_context(d, r.turn_index, cfg))
    _report("6 chatprep roundtrip", started, 30.0)


def pair_prefix(shorter, longer):
    return (
        longer.source.startswith(shorter.source)
        and longer.source != shorter.source
        and longer.target.startswith(shorter.target)
        and longer.target != shorter.target
    )


def test_c7_attention_kernels():
    started = time.monotonic()
    rng = np.random.default_rng(20223)
    for _ in range(100):
        h = int(rng.integers(1, 9))
        m, n_keys, dk, dv = (int(rng.integers(1, 17)) for _ in range(4))
        q = rng.normal(size=(h, m, dk))
        k = rng.normal(size=(h, n_keys, dk))
        v = rng.normal(size=(h, n_keys, dv))
        eye = np.eye(h)
        out = talking_heads_attention(q, k, v, eye, eye)
        per_head = np.stack([standard_attention(q[i], k[i], v[i]) for i in range(h)])
        assert np.abs(out - per_head).max() <= 1e-9
        # softmax rows sum to one: constant-V attention returns the constant
        ones = np.ones((n_keys, 1))
        assert np.abs(standard_attention(q[0], k[0], ones) - 1.0).max() <= 1e-12

    y = rng.normal(size=(12, 6))
    ffn = FfnParams.identity(6)
    assert np.abs(aan_context(y, ffn) - prefix_mean_oracle(y)).max() <= 1e-12
    base = aan_context(y, ffn)
    for j in range(12):
        perturbed = y.copy()
        perturbed[j] += 1.0
        assert np.allclose(aan_context(perturbed, ffn)[:j], base[:j], atol=1e-15)
    _report("7 attention kernels", started, 10.0)


def test_c8_pipeline_determinism(tmp_path):
    started = time.monotonic()
    bitext = tmp_path / "bitext.tsv"
    with open(bitext, "w", encoding="utf-8") as fh:
        fh.writelines(write_bitext(make_micro_corpus(), "tsv"))
    chat = tmp_path / "chat.jsonl"
    rng = random.Random(20224)
    with open(chat, "w", encoding="utf-8") as fh:
        for i in range(20):
            d = make_dialogue(rng, f"d{i}")
            for r in d.turns:
                fh.write(json.dumps({
                    "dialogue_id": r.dialogue_id, "turn_index": r.turn_index,
                    "speaker": r.speaker, "src_text": r.src_text,
                    "tgt_text": r.tgt_text, "src_lang": r.src_lang,
                    "tgt_lang": r.tgt_lang,
                }) + "\n")
    outputs = [tmp_path / n for n in ("filtered.tsv", "prepped.tsv", "noised.tsv")]
    cfg = {
        "seed": 42,
        "filter": {"input": str(bitext), "output": str(outputs[0])},
        "chatprep": {"input": str(chat), "output": str(outputs[1]), "n_prev": 2},
        "denoise": {"output": str(outputs[2]), "pair_fraction": 0.3,
                    "token_prob": 0.15},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    blobs = []
    for _ in range(3):
        assert cli_main(["pipeline", str(cfg_path)]) == 0
        blobs.append([p.read_bytes() for p in outputs])
    assert blobs[0] == blobs[1] == blobs[2]
    _report("8 pipeline determinism", started, 10.0)

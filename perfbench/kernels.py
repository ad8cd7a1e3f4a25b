#!/usr/bin/env python3
"""Attention forward stage of the chatmt benchmark.

Runs the fixed kernel set (AAN context, standard attention per head,
talking-heads attention) at fixed shapes, once to warm up and then
`--reps` times, and writes the median set time. It first checks each
kernel against a plain-loop oracle on a small shape.

    python3 perfbench/kernels.py --seed 1 --reps 7 --out attention.json

The kernels are called through the `chatmt.attention` module, so a tracer
that replaces them there sees every call.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import time

import numpy as np

from chatmt import attention

HEADS, SEQ, HEAD_DIM = 8, 512, 64
AAN_DIM, AAN_FF = 512, 1024
ORACLE_TOLERANCE = 1e-9


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "q": rng.normal(size=(HEADS, SEQ, HEAD_DIM)),
        "k": rng.normal(size=(HEADS, SEQ, HEAD_DIM)),
        "v": rng.normal(size=(HEADS, SEQ, HEAD_DIM)),
        "w_logits": rng.normal(size=(HEADS, HEADS)) / HEADS,
        "w_scores": rng.normal(size=(HEADS, HEADS)) / HEADS,
        "y": rng.normal(size=(SEQ, AAN_DIM)),
        "ffn": attention.FfnParams(
            w1=rng.normal(size=(AAN_DIM, AAN_FF)) / math.sqrt(AAN_DIM),
            b1=rng.normal(size=AAN_FF),
            w2=rng.normal(size=(AAN_FF, AAN_DIM)) / math.sqrt(AAN_FF),
            b2=rng.normal(size=AAN_DIM),
        ),
    }


def kernel_set(x: dict) -> None:
    attention.aan_context(x["y"], x["ffn"])
    for h in range(HEADS):
        attention.standard_attention(x["q"][h], x["k"][h], x["v"][h])
    attention.talking_heads_attention(x["q"], x["k"], x["v"], x["w_logits"], x["w_scores"])


# ------------------------------------------------------- loop oracles

def _softmax(row: list[float]) -> list[float]:
    top = max(row)
    ex = [math.exp(v - top) for v in row]
    total = sum(ex)
    return [v / total for v in ex]


def _attend(q, k, v) -> list[list[float]]:
    d = len(q[0])
    out = []
    for qi in q:
        probs = _softmax([sum(a * b for a, b in zip(qi, kj)) / math.sqrt(d) for kj in k])
        out.append([sum(p * vj[c] for p, vj in zip(probs, v)) for c in range(len(v[0]))])
    return out


def _aan_oracle(y, ffn) -> list[list[float]]:
    out = []
    for i in range(len(y)):
        mean = [sum(row[c] for row in y[: i + 1]) / (i + 1) for c in range(len(y[0]))]
        hidden = [max(0.0, sum(mean[a] * ffn.w1[a][b] for a in range(len(mean))) + ffn.b1[b])
                  for b in range(len(ffn.b1))]
        out.append([sum(hidden[b] * ffn.w2[b][c] for b in range(len(hidden))) + ffn.b2[c]
                    for c in range(len(ffn.b2))])
    return out


def _talking_heads_oracle(q, k, v, wl, ws) -> list:
    h, m, n, d = len(q), len(q[0]), len(k[0]), len(q[0][0])
    logits = [[[sum(a * b for a, b in zip(q[x][i], k[x][j])) / math.sqrt(d)
                for j in range(n)] for i in range(m)] for x in range(h)]
    probs = [[_softmax([sum(logits[x][i][j] * wl[x][g] for x in range(h)) for j in range(n)])
              for i in range(m)] for g in range(h)]
    out = []
    for g in range(h):
        rows = []
        for i in range(m):
            mix = [sum(probs[x][i][j] * ws[x][g] for x in range(h)) for j in range(n)]
            rows.append([sum(mix[j] * v[g][j][c] for j in range(n)) for c in range(len(v[0][0]))])
        out.append(rows)
    return out


def oracle_deviation(seed: int) -> float:
    """Largest absolute difference between each kernel and its loop oracle
    on small shapes."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(5, 4))
    ffn = attention.FfnParams(w1=rng.normal(size=(4, 6)), b1=rng.normal(size=6),
                              w2=rng.normal(size=(6, 3)), b2=rng.normal(size=3))
    q, k, v = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 6, 5)), rng.normal(size=(3, 6, 2))
    wl, ws = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    pairs = [
        (attention.aan_context(y, ffn), _aan_oracle(y.tolist(), ffn)),
        (attention.standard_attention(q[0], k[0], v[0]),
         _attend(q[0].tolist(), k[0].tolist(), v[0].tolist())),
        (attention.talking_heads_attention(q, k, v, wl, ws),
         _talking_heads_oracle(q.tolist(), k.tolist(), v.tolist(), wl.tolist(), ws.tolist())),
    ]
    return max(float(np.abs(got - np.asarray(want)).max()) for got, want in pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    deviation = oracle_deviation(args.seed)
    x = make_inputs(args.seed)
    kernel_set(x)  # warm-up: BLAS thread start and first-touch page faults
    samples = []
    for _ in range(args.reps):
        started = time.perf_counter()
        kernel_set(x)
        samples.append(time.perf_counter() - started)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"attention_s": statistics.median(samples), "samples": samples,
                   "sets_run": args.reps + 1, "oracle_deviation": deviation,
                   "oracle_tolerance": ORACLE_TOLERANCE}, fh)
    return 0 if deviation <= ORACLE_TOLERANCE else 3


if __name__ == "__main__":
    raise SystemExit(main())

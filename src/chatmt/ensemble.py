"""Greedy ensemble selection trading off validation quality against
inter-model similarity.

Each model gets a weighted score combining its validation metric
(rescaled into the similarity range) with its diversity (how dissimilar
it is from the other candidates). The best-scoring model seeds the
pool; every following step adds the remaining model least similar on
average to the pool. The pairwise similarity matrix is supplied by the
caller, so any system-level metric works.

Ties break toward the higher validation score, then the
lexicographically smaller model id. Degenerate inputs (all validation
scores equal, or all similarities equal) zero out the corresponding
term instead of failing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import neg
from typing import Sequence

from .corpus import check_field_types


def _scores(values) -> tuple[float, ...]:
    values = tuple(values)
    # float() also takes text and bools, which are not scores.
    for t in set(map(type, values)):
        if issubclass(t, (str, bytes, bool)):
            raise ValueError(f"scores must be numbers, got a {t.__name__}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class ScoreSet:
    model_ids: tuple[str, ...]
    comet: tuple[float, ...]
    pairwise: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.model_ids)
        if not all(isinstance(m, str) for m in self.model_ids):
            raise ValueError("model ids must be strings")
        # UTF-8 cannot encode a lone surrogate (a JSON \ud800 escape).
        bad = [m for m in self.model_ids if m.encode("utf-8", "replace").decode("utf-8") != m]
        if bad:
            raise ValueError(f"model id {bad[0]!r} is not valid Unicode")
        if n < 2:
            raise ValueError("need at least 2 candidate models")
        if len(set(self.model_ids)) != n:
            raise ValueError("model ids must be unique")
        if len(self.comet) != n:
            raise ValueError("comet length must match model count")
        if len(self.pairwise) != n or any(len(row) != n for row in self.pairwise):
            raise ValueError(f"pairwise must be {n}x{n}")
        if not all(map(math.isfinite, chain(self.comet, *self.pairwise))):
            raise ValueError("all scores must be finite")

    @classmethod
    def from_lists(cls, model_ids, comet, pairwise) -> "ScoreSet":
        # A string or a mapping is iterable too, but holds no list of ids.
        if not isinstance(model_ids, (list, tuple)):
            raise ValueError("models must be a list of model ids")
        return cls(
            model_ids=tuple(model_ids),
            comet=_scores(comet),
            pairwise=tuple(_scores(row) for row in pairwise),
        )

    @property
    def n(self) -> int:
        return len(self.model_ids)


@dataclass(frozen=True)
class EnsembleConfig:
    """bsce-select's option. It has no default; select_ensemble checks its
    range, 1..n, since n comes from the scores."""
    ensemble_size: int

    def __post_init__(self):
        check_field_types(self)


@dataclass
class EnsembleSelection:
    selected: list[str]
    weighted_scores: list[float]
    # One entry per greedy step: [(candidate id, avg similarity to pool)].
    step_diagnostics: list[list[tuple[str, float]]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "weighted_scores": list(self.weighted_scores),
            "step_diagnostics": [
                [{"model": m, "avg_similarity": s} for m, s in step]
                for step in self.step_diagnostics
            ],
        }


def _exact_sum(values: Sequence[float]) -> Fraction:
    """Exact sum of finite floats. math.fsum rounds the exact sum
    correctly (Shewchuk's partials), so taking each rounded sum off the
    values leaves an exact, smaller remainder; a few calls peel the sum
    into parts that add up to it exactly, ending at a remainder of 0. A
    partial sum beyond float range makes fsum raise OverflowError, and
    then the values themselves are the parts. Each part is m / 2**k, so
    scaling every numerator to the largest denominator sums them as
    integers."""
    parts: list[float] = []
    try:
        while part := math.fsum(chain(values, map(neg, parts))):
            parts.append(part)
    except OverflowError:
        parts = values
    ratios = [v.as_integer_ratio() for v in parts]
    den = max([d for _, d in ratios], default=1)
    return Fraction(sum([m * (den // d) for m, d in ratios]), den)


def _avg_self_similarity_exact(s: ScoreSet) -> list[Fraction]:
    return [_exact_sum(row[:i] + row[i + 1:]) / (s.n - 1)
            for i, row in enumerate(s.pairwise)]


def _weighted_scores_exact(
    comet: Sequence[Fraction], self_sim: Sequence[Fraction]
) -> list[Fraction]:
    # score_i = (c_i - min(C)) * (range(S)/range(C)) + (max(S) - s_i).
    # Exact rational arithmetic: the formula cancels algebraically in
    # several configurations (with n=2 the two scores tie identically),
    # and float rounding there would defeat the documented tie-break.
    c_min, c_max = min(comet), max(comet)
    s_min, s_max = min(self_sim), max(self_sim)
    c_range = c_max - c_min
    s_range = s_max - s_min
    weight = Fraction(0) if c_range == 0 else s_range / c_range
    return [
        (c - c_min) * weight + (s_max - s) for c, s in zip(comet, self_sim)
    ]


def _avg_similarity_to_pool(s: ScoreSet, i: int, pool: Sequence[int]) -> Fraction:
    row = s.pairwise[i]
    return _exact_sum([row[j] for j in pool]) / len(pool)


def _score_float(model: str, score: Fraction) -> float:
    try:
        return float(score)
    except OverflowError:
        raise OverflowError(
            f"the weighted score of model {model!r} is beyond float range") from None


def select_ensemble(s: ScoreSet, e: int) -> EnsembleSelection:
    """Greedy selection of e models: best weighted score first, then
    repeatedly the remaining model least similar to the pool."""
    if not 1 <= e <= s.n:
        raise ValueError(f"ensemble size {e} out of range 1..{s.n}")
    scores = _weighted_scores_exact(
        [Fraction(c) for c in s.comet], _avg_self_similarity_exact(s)
    )

    # Highest weighted score; ties prefer higher comet, then smaller id.
    top = min(
        range(s.n),
        key=lambda i: (-scores[i], -s.comet[i], s.model_ids[i]),
    )
    pool = [top]
    diagnostics: list[list[tuple[str, float]]] = []

    while len(pool) < e:
        # Candidates by average similarity to the pool, its float (the
        # diagnostics' value) first: rounding is monotonic, so this is the
        # exact order, and Fractions are compared only where floats tie.
        # Ties prefer higher comet, then smaller id.
        step = []
        for i in range(s.n):
            if i not in pool:
                avg = _avg_similarity_to_pool(s, i, pool)
                step.append((float(avg), avg, -s.comet[i], s.model_ids[i], i))
        diagnostics.append([(m, sim) for sim, _, _, m, _ in step])
        pool.append(min(step)[-1])

    return EnsembleSelection(
        selected=[s.model_ids[i] for i in pool],
        weighted_scores=list(map(_score_float, s.model_ids, scores)),
        step_diagnostics=diagnostics,
    )

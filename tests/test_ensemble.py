import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import oracle
from oracle import outcome
from chatmt.ensemble import (
    EnsembleConfig,
    ScoreSet,
    _avg_self_similarity_exact,
    _exact_sum,
    select_ensemble,
)

# Three-model worked example used throughout: symmetric similarities
# m1-m2 = 1.00, m1-m3 = 0.80, m2-m3 = 0.90.
WORKED = ScoreSet.from_lists(
    ["m1", "m2", "m3"],
    [0.70, 0.80, 0.75],
    [[0.0, 1.00, 0.80], [1.00, 0.0, 0.90], [0.80, 0.90, 0.0]],
)


def brute_force_select(s: ScoreSet, e: int) -> list[str]:
    """The oracle's selection (tests/test_acceptance.py imports this name)."""
    return oracle.select_ensemble(s, e).selected


def avg_self_similarity(s: ScoreSet) -> list[float]:
    return [float(v) for v in _avg_self_similarity_exact(s)]


def weighted_scores(comet: list[float], pairwise: list[list[float]]) -> list[float]:
    ids = [f"m{i}" for i in range(len(comet))]
    return select_ensemble(ScoreSet.from_lists(ids, comet, pairwise), 1).weighted_scores


class TestAvgSelfSimilarity:
    def test_worked_example(self):
        assert avg_self_similarity(WORKED) == pytest.approx([0.90, 0.95, 0.85], abs=1e-12)

    def test_constant_matrix(self):
        s = ScoreSet.from_lists(
            ["a", "b", "c"],
            [0.1, 0.2, 0.3],
            [[0.0 if i == j else 0.7 for j in range(3)] for i in range(3)],
        )
        sims = avg_self_similarity(s)
        assert sims == pytest.approx([0.7, 0.7, 0.7])

    def test_two_models(self):
        s = ScoreSet.from_lists(["a", "b"], [0.1, 0.2], [[0.0, 0.5], [0.5, 0.0]])
        assert avg_self_similarity(s) == [0.5, 0.5]


class TestWeightedScores:
    # WORKED's rows average to the self-similarities [0.90, 0.95, 0.85];
    # with two models, row i's self-similarity is its one off-diagonal value.
    def test_worked_example(self):
        scores = weighted_scores([0.70, 0.80, 0.75], WORKED.pairwise)
        assert scores == pytest.approx([0.05, 0.10, 0.15], abs=1e-12)

    def test_affine_invariance_of_comet(self):
        scores = weighted_scores([7.0, 8.0, 7.5], WORKED.pairwise)
        assert scores == pytest.approx([0.05, 0.10, 0.15], abs=1e-12)

    def test_degenerate_comet(self):
        assert weighted_scores([0.5, 0.5], [[0.0, 0.9], [0.8, 0.0]]) == pytest.approx([0.0, 0.1])

    def test_degenerate_similarity(self):
        assert weighted_scores([0.1, 0.9], [[0.0, 0.5], [0.5, 0.0]]) == [0.0, 0.0]


class TestSelectEnsemble:
    def test_worked_trace(self):
        sel = select_ensemble(WORKED, 2)
        assert sel.selected == ["m3", "m1"]
        assert sel.weighted_scores == pytest.approx([0.05, 0.10, 0.15], abs=1e-12)
        # one greedy step; m1 is closer to m3 than m2 is
        (step,) = sel.step_diagnostics
        assert dict(step) == pytest.approx({"m1": 0.80, "m2": 0.90})

    def test_e_one(self):
        assert select_ensemble(WORKED, 1).selected == ["m3"]

    def test_e_equals_n(self):
        sel = select_ensemble(WORKED, 3)
        assert sorted(sel.selected) == ["m1", "m2", "m3"]
        assert len(set(sel.selected)) == 3

    def test_e_out_of_range(self):
        for e in (0, 4):
            with pytest.raises(ValueError):
                select_ensemble(WORKED, e)

    @pytest.mark.parametrize("size", [True, "3", 2.0])
    def test_config_refuses_a_size_that_is_not_an_int(self, size):
        with pytest.raises(ValueError,
                           match=f"^ensemble_size must be an integer, got {size!r}$"):
            EnsembleConfig(size)

    def test_invalid_score_set(self):
        with pytest.raises(ValueError):
            ScoreSet.from_lists(["a"], [0.1], [[0.0]])
        with pytest.raises(ValueError):
            ScoreSet.from_lists(["a", "a"], [0.1, 0.2], [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            ScoreSet.from_lists(["a", "b"], [0.1, math.inf], [[0, 1], [1, 0]])


def random_score_set(rng: random.Random, n: int | None = None) -> ScoreSet:
    n = n or rng.randint(2, 8)
    comet = [round(rng.uniform(-1, 1.2), 4) for _ in range(n)]
    pairwise = [
        [0.0 if i == j else round(rng.uniform(0, 1), 4) for j in range(n)]
        for i in range(n)
    ]
    return ScoreSet.from_lists([f"m{i:02d}" for i in range(n)], comet, pairwise)


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force(seed):
    rng = random.Random(seed)
    s = random_score_set(rng)
    for e in range(1, s.n + 1):
        assert select_ensemble(s, e).selected == brute_force_select(s, e)


@pytest.mark.parametrize("seed", range(10))
def test_greedy_step_optimality(seed):
    rng = random.Random(500 + seed)
    s = random_score_set(rng)
    sel = select_ensemble(s, s.n)
    idx = {m: i for i, m in enumerate(s.model_ids)}
    pool = [idx[sel.selected[0]]]
    for step, chosen in zip(sel.step_diagnostics, sel.selected[1:]):
        chosen_sim = dict(step)[chosen]
        assert all(chosen_sim <= sim + 1e-12 for _, sim in step)
        pool.append(idx[chosen])


@pytest.mark.parametrize("seed", range(10))
def test_argmax_affine_invariance(seed):
    rng = random.Random(900 + seed)
    s = random_score_set(rng)
    base_top = select_ensemble(s, 1).selected[0]
    for _ in range(20):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-2.0, 2.0)
        comet_t = [a * c + b for c in s.comet]
        st = ScoreSet.from_lists(s.model_ids, comet_t, s.pairwise)
        assert select_ensemble(st, 1).selected[0] == base_top
        pair_t = [[a * v + b if i != j else 0.0 for j, v in enumerate(row)]
                  for i, row in enumerate(s.pairwise)]
        st2 = ScoreSet.from_lists(s.model_ids, s.comet, pair_t)
        assert select_ensemble(st2, 1).selected[0] == base_top


def test_selection_dict_shape():
    out = select_ensemble(WORKED, 2).as_dict()
    assert out["selected"] == ["m3", "m1"]
    assert len(out["step_diagnostics"]) == 1
    assert {d["model"] for d in out["step_diagnostics"][0]} == {"m1", "m2"}


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, 1.0, -1.0, 0.1, 3.0e-17,
])


@given(st.lists(st.one_of(finite, edge_floats), max_size=40))
def test_exact_sum_matches_fraction_sum(xs):
    assert _exact_sum(xs) == sum(map(Fraction, xs), Fraction(0))


@st.composite
def tie_prone_score_sets(draw) -> ScoreSet:
    # A few values shared by every cell, so ties and flat rows are common.
    values = draw(st.lists(st.sampled_from(
        [0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1.0, -0.5, 1e-300, 0.1 + 0.2]),
        min_size=1, max_size=4))
    n = draw(st.integers(2, 12))
    cell = st.sampled_from(values)
    comet = draw(st.lists(cell, min_size=n, max_size=n))
    pairwise = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return ScoreSet.from_lists([f"m{i:02d}" for i in range(n)], comet, pairwise)


@given(tie_prone_score_sets())
def test_select_matches_fraction_per_term_reference(s):
    for e in range(1, s.n + 1):
        # json.dumps writes each float's shortest round-trip repr (and
        # the sign of zero), so equal text means bit-equal values.
        assert json.dumps(select_ensemble(s, e).as_dict()) == \
            json.dumps(oracle.select_ensemble(s, e).as_dict())


BIG = 1.7976931348623157e308  # the largest finite float
# Any finite float: an odd-or-even 53-bit mantissa at any exponent from
# the subnormals' 2**-1074 up to the top binade; each is exact.
wide_floats = st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1),
                        st.integers(-1074, 971))
# Values near the top of the range, so partial sums leave it and fsum
# raises OverflowError partway through a list.
huge_floats = st.sampled_from([BIG, -BIG, 2.0**1023, -2.0**1023, 1e308, -1e308])


@example([BIG, BIG, -BIG])
@example([1.0, 1e-30, -1.0])
@given(st.lists(st.one_of(finite, edge_floats, wide_floats, huge_floats), max_size=500))
def test_exact_sum_over_the_whole_float_range(xs):
    assert _exact_sum(xs) == sum(map(Fraction, xs), Fraction(0))


def test_select_200_models_matches_oracle():
    rng = random.Random(2024)
    n = 200
    s = ScoreSet.from_lists(
        [f"m{i:03d}" for i in range(n)],
        [rng.uniform(0.7, 0.8) for _ in range(n)],
        [[0.0 if i == j else rng.uniform(0.6, 1.0) for j in range(n)] for i in range(n)],
    )
    assert json.dumps(select_ensemble(s, 8).as_dict()) == \
        json.dumps(oracle.select_ensemble(s, 8).as_dict())


def test_step_breaks_float_ties_by_exact_average():
    # a is the top model and x joins next (x's row to a is 0). Then b and
    # c both average 0.25 to the pool as floats, but b's exact average is
    # larger by 1e-300 / 2, so c joins although b has the higher comet
    # and the smaller id.
    s = ScoreSet.from_lists(
        ["a", "b", "c", "x"],
        [1.0, 0.9, 0.1, 0.0],
        [[0, 0, 0, 0], [0.5, 0, 0, 1e-300], [0.5, 0, 0, 0], [0, 0, 0, 0]],
    )
    sel = select_ensemble(s, 3)
    assert sel.selected == ["a", "x", "c"]
    assert dict(sel.step_diagnostics[1]) == {"b": 0.25, "c": 0.25}
    assert sel.as_dict() == oracle.select_ensemble(s, 3).as_dict()


def test_weighted_score_beyond_float_range_names_the_model():
    # Weighted scores 0, 4 * BIG and 2 * BIG: b's is the first no float holds.
    s = ScoreSet.from_lists(["a", "b", "c"], [0, 1, 0.5],
                            [[0, BIG, BIG], [-BIG, 0, -BIG], [0, 0, 0]])
    got = outcome(select_ensemble, s, 2)
    assert got[:2] == (OverflowError,
                       "the weighted score of model 'b' is beyond float range")
    assert got == outcome(oracle.select_ensemble, s, 2)

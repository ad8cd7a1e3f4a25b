import tracemalloc

import numpy as np
import pytest

import oracle
from chatmt import attention
from chatmt.attention import (
    FfnParams,
    aan_context,
    standard_attention,
    talking_heads_attention,
)
from oracle import prefix_mean_oracle


class TestAan:
    def test_two_step_example(self):
        y = np.array([[1.0, 1.0], [3.0, 3.0]])
        out = aan_context(y, FfnParams.identity(2))
        assert np.allclose(out, [[1, 1], [2, 2]])

    def test_constant_rows(self):
        y = np.tile([2.0, -1.0, 0.5], (6, 1))
        out = aan_context(y, FfnParams.identity(3))
        assert np.allclose(out, y)

    def test_matches_prefix_mean_oracle(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(5, 4))
        out = aan_context(y, FfnParams.identity(4))
        assert np.abs(out - prefix_mean_oracle(y)).max() <= 1e-12

    def test_causality(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(7, 3))
        base = aan_context(y, FfnParams.identity(3))
        for j in range(7):
            perturbed = y.copy()
            perturbed[j] += rng.normal(size=3)
            out = aan_context(perturbed, FfnParams.identity(3))
            assert np.allclose(out[:j], base[:j])
            assert not np.allclose(out[j:], base[j:])

    def test_nontrivial_ffn(self):
        rng = np.random.default_rng(2)
        d, d_ff = 4, 6
        ffn = FfnParams(
            w1=rng.normal(size=(d, d_ff)),
            b1=rng.normal(size=d_ff),
            w2=rng.normal(size=(d_ff, d)),
            b2=rng.normal(size=d),
        )
        y = rng.normal(size=(5, d))
        assert np.allclose(aan_context(y, ffn), oracle.ffn(prefix_mean_oracle(y), ffn))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aan_context(np.zeros((3, 4)), FfnParams.identity(5))


class TestStandardAttention:
    def test_single_kv_row(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(1, 3))
        v = rng.normal(size=(1, 5))
        out = standard_attention(q, k, v)
        assert np.allclose(out, np.tile(v, (4, 1)))

    def test_orthogonal_q_gives_uniform_average(self):
        k = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        q = np.zeros((2, 2))
        v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = standard_attention(q, k, v)
        assert np.allclose(out, np.tile(v.mean(axis=0), (2, 1)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
        assert np.abs(standard_attention(q, k, v) - oracle.standard_attention(q, k, v)).max() \
            <= 1e-12

    def test_rows_sum_to_one_and_convex_hull(self):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=(6, 3)), rng.normal(size=(8, 3))
        v = np.ones((8, 1))
        # with constant V every output must be exactly that constant
        assert np.abs(standard_attention(q, k, v) - 1.0).max() <= 1e-12

    def test_kv_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        q, k, v = rng.normal(size=(4, 3)), rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        a = standard_attention(q, k, v)
        b = standard_attention(q, k[perm], v[perm])
        assert np.abs(a - b).max() <= 1e-12

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            standard_attention(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            standard_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 5)))


class TestTalkingHeads:
    def test_identity_mixing_reduces_to_standard(self):
        rng = np.random.default_rng(7)
        for h in (1, 2, 4, 8):
            q = rng.normal(size=(h, 5, 6))
            k = rng.normal(size=(h, 7, 6))
            v = rng.normal(size=(h, 7, 3))
            eye = np.eye(h)
            out = talking_heads_attention(q, k, v, eye, eye)
            per_head = np.stack([standard_attention(q[i], k[i], v[i]) for i in range(h)])
            assert np.abs(out - per_head).max() <= 1e-9

    def test_single_head_unit_weights(self):
        rng = np.random.default_rng(8)
        q, k, v = rng.normal(size=(1, 4, 3)), rng.normal(size=(1, 5, 3)), rng.normal(size=(1, 5, 2))
        out = talking_heads_attention(q, k, v, [[1.0]], [[1.0]])
        assert np.abs(out[0] - standard_attention(q[0], k[0], v[0])).max() <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        h = 2
        q = rng.normal(size=(h, 3, 4))
        k = rng.normal(size=(h, 5, 4))
        v = rng.normal(size=(h, 5, 3))
        wl = rng.normal(size=(h, h))
        wa = rng.normal(size=(h, h))
        out = talking_heads_attention(q, k, v, wl, wa)
        assert np.abs(out - oracle.talking_heads_attention(q, k, v, wl, wa)).max() <= 1e-9

    def test_bad_mixing_shapes(self):
        q = np.zeros((2, 3, 4))
        k = np.zeros((2, 5, 4))
        v = np.zeros((2, 5, 3))
        with pytest.raises(ValueError):
            talking_heads_attention(q, k, v, np.eye(3), np.eye(2))


# ------------------------------------------- the out-of-place formulas
# The kernels compute in temporaries they own; the oracle's kernels make
# one fresh array per step.

HEADS, SEQ, HEAD_DIM = 8, 512, 64  # perfbench/kernels.py's shapes
AAN_DIM, AAN_FF = 512, 1024


def _bench_inputs(seed):
    rng = np.random.default_rng(seed)
    ffn = FfnParams(
        w1=rng.normal(size=(AAN_DIM, AAN_FF)) / np.sqrt(AAN_DIM),
        b1=rng.normal(size=AAN_FF),
        w2=rng.normal(size=(AAN_FF, AAN_DIM)) / np.sqrt(AAN_FF),
        b2=rng.normal(size=AAN_DIM),
    )
    q, k, v = (rng.normal(size=(HEADS, SEQ, HEAD_DIM)) for _ in range(3))
    wl, ws = (rng.normal(size=(HEADS, HEADS)) / HEADS for _ in range(2))
    return rng.normal(size=(SEQ, AAN_DIM)), ffn, q, k, v, wl, ws


def _unchanged_after(kernel, *args):
    before = [np.array(a, copy=True) for a in args]
    out = kernel(*args)
    for a, b in zip(args, before):
        assert np.array_equal(a, b) and a.dtype == b.dtype
    return out


class TestInPlaceKernels:
    def test_no_argument_changes(self):
        rng = np.random.default_rng(10)
        h, m, n, d = 3, 6, 7, 5
        q = rng.normal(size=(h, m, d))
        k = rng.normal(size=(h, n, d))
        v = rng.normal(size=(h, n, 4))
        k_t = np.ascontiguousarray(k.transpose(0, 2, 1)).transpose(0, 2, 1)
        w = rng.normal(size=(h, h))
        assert not k_t.flags.c_contiguous
        for kk in (k, k_t):
            _unchanged_after(talking_heads_attention, q, kk, v, w, w.T)
            for i in range(h):
                # q[i] is a view into q, kk[i] a transposed view for k_t.
                _unchanged_after(standard_attention, q[i], kk[i], v[i])
        ffn = FfnParams(w1=rng.normal(size=(d, 8)), b1=rng.normal(size=8),
                        w2=rng.normal(size=(8, d)), b2=rng.normal(size=d))
        weights = [np.array(a, copy=True) for a in (ffn.w1, ffn.b1, ffn.w2, ffn.b2)]
        for y in (q[0], k_t[0], q[0][::-1]):
            _unchanged_after(lambda y: aan_context(y, ffn), y)
        for a, b in zip((ffn.w1, ffn.b1, ffn.w2, ffn.b2), weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equal_to_out_of_place_formulas(self, seed):
        y, ffn, q, k, v, wl, ws = _bench_inputs(seed)
        assert np.array_equal(_unchanged_after(lambda y: aan_context(y, ffn), y),
                              oracle.aan_context(y, ffn))
        for h in range(HEADS):
            assert np.array_equal(_unchanged_after(standard_attention, q[h], k[h], v[h]),
                                  oracle.standard_attention(q[h], k[h], v[h]))
        out = _unchanged_after(talking_heads_attention, q, k, v, wl, ws)
        assert np.abs(out - oracle.talking_heads_attention(q, k, v, wl, ws)).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_int_and_float32_inputs_give_float64(self, dtype):
        rng = np.random.default_rng(11)
        h, m, n, d = 4, 9, 11, 6
        q, k, v = (rng.integers(-3, 4, size=(h, rows, d)).astype(dtype)
                   for rows in (m, n, n))
        wl, ws = (rng.integers(-2, 3, size=(h, h)).astype(dtype) for _ in range(2))
        y = rng.integers(-5, 6, size=(m, d)).astype(dtype)
        ffn = FfnParams(w1=rng.normal(size=(d, 8)), b1=rng.normal(size=8),
                        w2=rng.normal(size=(8, d)), b2=rng.normal(size=d))
        out = _unchanged_after(lambda y: aan_context(y, ffn), y)
        assert out.dtype == np.float64 and np.array_equal(out, oracle.aan_context(y, ffn))
        out = _unchanged_after(standard_attention, q[0], k[0], v[0])
        assert out.dtype == np.float64
        assert np.array_equal(out, oracle.standard_attention(q[0], k[0], v[0]))
        out = _unchanged_after(talking_heads_attention, q, k, v, wl, ws)
        assert out.dtype == np.float64
        assert np.abs(out - oracle.talking_heads_attention(q, k, v, wl, ws)).max() <= 1e-12

    # Integer weights with float biases: an integer input's products are
    # integer, so _add_bias adds each bias out of place.
    @pytest.mark.parametrize("dtype, bias_dtype", [
        (np.int64, np.int64), (np.float32, np.float32), (np.float64, np.float64),
        (np.int64, np.float64),
    ], ids=["int64", "float32", "float64", "int64-float64-biases"])
    def test_ffn_apply_equals_its_formula(self, dtype, bias_dtype):
        rng = np.random.default_rng(12)
        d, d_ff = 5, 7
        w1, b1, w2, b2, x = (rng.integers(-4, 5, size=shape).astype(dtype) for shape in
                             ((d, d_ff), d_ff, (d_ff, d), d, (6, d)))
        b1, b2 = b1.astype(bias_dtype), b2.astype(bias_dtype)
        ffn = FfnParams(w1=w1, b1=b1, w2=w2, b2=b2)
        for inp in (x, x.astype(np.int64), x.astype(np.float32), x.astype(np.float64)):
            out = _unchanged_after(lambda inp, *_: ffn.apply(inp), inp, w1, b1, w2, b2)
            want = oracle.ffn(inp, ffn)
            assert out.dtype == want.dtype and np.array_equal(out, want)


_Z = np.zeros


@pytest.mark.parametrize("call, message", [
    (lambda: standard_attention(_Z((2, 3, 4)), _Z((5, 4)), _Z((5, 2))), "q, k, v must be 2-D"),
    (lambda: standard_attention(_Z((3, 4)), _Z((5, 3)), _Z((5, 2))), "q and k widths differ"),
    (lambda: standard_attention(_Z((3, 4)), _Z((5, 4)), _Z((6, 2))),
     "k and v row counts differ"),
    (lambda: talking_heads_attention(_Z((3, 4)), _Z((2, 5, 4)), _Z((2, 5, 2)), _Z((2, 2)),
                                     _Z((2, 2))), "q, k, v must be stacked per head, 3-D"),
    (lambda: talking_heads_attention(_Z((2, 3, 4)), _Z((3, 5, 4)), _Z((2, 5, 2)), _Z((2, 2)),
                                     _Z((2, 2))), "head counts differ"),
    (lambda: talking_heads_attention(_Z((2, 3, 4)), _Z((2, 5, 4)), _Z((3, 5, 2)), _Z((2, 2)),
                                     _Z((2, 2))), "head counts differ"),
    (lambda: talking_heads_attention(_Z((2, 3, 4)), _Z((2, 5, 3)), _Z((2, 5, 2)), _Z((2, 2)),
                                     _Z((2, 2))), "per-head shapes incompatible"),
    (lambda: talking_heads_attention(_Z((2, 3, 4)), _Z((2, 5, 4)), _Z((2, 6, 2)), _Z((2, 2)),
                                     _Z((2, 2))), "per-head shapes incompatible"),
    (lambda: talking_heads_attention(_Z((2, 3, 4)), _Z((2, 5, 4)), _Z((2, 5, 2)), _Z((2, 2)),
                                     _Z((3, 3))), "head-mixing matrices must be 2x2"),
    (lambda: aan_context(_Z(4), FfnParams.identity(4)), r"y must be a \(t, d\) matrix"),
    (lambda: aan_context(_Z((0, 4)), FfnParams.identity(4)), r"y must be a \(t, d\) matrix"),
    (lambda: FfnParams(w1=_Z((4, 3)), b1=_Z(3), w2=_Z((2, 4)), b2=_Z(4)),
     "W1/W2 inner dimensions do not match"),
    (lambda: FfnParams(w1=_Z((4, 3)), b1=_Z(4), w2=_Z((3, 4)), b2=_Z(4)), "b1 shape mismatch"),
    (lambda: FfnParams(w1=_Z((4, 3)), b1=_Z(3), w2=_Z((3, 4)), b2=_Z(3)), "b2 shape mismatch"),
    (lambda: FfnParams.identity(4).apply(_Z((2, 3))), "input width 3 != W1 rows 4"),
], ids=["standard-2d", "standard-widths", "standard-rows", "talking-3d", "talking-k-heads",
        "talking-v-heads", "talking-widths", "talking-rows", "talking-mixing", "aan-1d",
        "aan-no-rows", "ffn-inner", "ffn-b1", "ffn-b2", "ffn-input-width"])
def test_shape_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestEmptyAndBlockedShapes:
    def test_empty_key_set_is_refused(self):
        q = np.zeros((2, 3, 4))
        k, v = np.zeros((2, 0, 4)), np.zeros((2, 0, 5))
        for call in (lambda: standard_attention(q[0], k[0], v[0]),
                     lambda: talking_heads_attention(q, k, v, np.eye(2), np.eye(2)),
                     lambda: talking_heads_attention(q[:, :0], k, v, np.eye(2), np.eye(2))):
            with pytest.raises(ValueError, match="k and v have no rows"):
                call()

    def test_empty_query_set_gives_empty_output(self):
        rng = np.random.default_rng(13)
        q, k, v = rng.normal(size=(3, 0, 4)), rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 6, 5))
        out = talking_heads_attention(q, k, v, np.eye(3), np.eye(3))
        assert out.shape == (3, 0, 5) and out.dtype == np.float64
        assert standard_attention(q[0], k[0], v[0]).shape == (0, 5)

    @pytest.mark.parametrize("n", [1, 7, 512])
    def test_talking_heads_across_block_edges(self, n, monkeypatch):
        # At n = 512 the module's own budget gives 64-row blocks; for small
        # n it would give blocks of many thousand rows, so the test budget
        # gives 16.
        if n != SEQ:
            monkeypatch.setattr(attention, "_BLOCK_BYTES", 8 * HEADS * n * 16)
        rows = attention._BLOCK_BYTES // (8 * HEADS * n)
        assert rows == (64 if n == SEQ else 16)
        rng = np.random.default_rng(n)
        k, v = rng.normal(size=(HEADS, n, HEAD_DIM)), rng.normal(size=(HEADS, n, 3))
        wl, ws = (rng.normal(size=(HEADS, HEADS)) / HEADS for _ in range(2))
        for m in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            q = rng.normal(size=(HEADS, m, HEAD_DIM))
            out = _unchanged_after(talking_heads_attention, q, k, v, wl, ws)
            assert out.shape == (HEADS, m, 3)
            assert np.abs(out - oracle.talking_heads_attention(q, k, v, wl, ws)).max() <= 1e-12

    def test_talking_heads_never_holds_a_full_grid(self):
        _, _, q, k, v, wl, ws = _bench_inputs(1)
        talking_heads_attention(q, k, v, wl, ws)  # first-call allocations
        tracemalloc.start()
        try:
            talking_heads_attention(q, k, v, wl, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (8, 512, 512) float64 grid is 16 MiB.
        assert peak < HEADS * SEQ * SEQ * 8

"""Forward-only reference kernels for the attention variants used for
model diversity: cumulative-average context (AAN-style) and
talking-heads attention, plus the standard scaled dot-product baseline.

Dense numpy, no masking, no gradients; these exist so the formulas are
executable and testable, not for training. Each kernel works in place
only on temporaries it allocated itself (never on an argument: for a
float64 input, np.asarray returns the caller's own array), and mixes
heads through BLAS.

The temporaries are kept small because of what the allocator does with
them. glibc hands a large free block at the top of its heap back to the
OS (by default once it passes twice the largest block it has mmapped and
freed), and the next call faults those pages in again. Three fresh
(H, m, n) grids per talking-heads call, 16 MB each at H=8, m=n=512,
cost ≈2.5k minor page faults per call. So talking heads walks the
queries in blocks of rows (a block's logits take about `_BLOCK_BYTES`)
and never allocates a full grid, and aan_context frees its cumulative
mean before the FFN's output product. At the benchmark's shapes each
kernel's temporaries then stay in the heap and are reused from call to
call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes of one query block's (H, rows, n) float64 logits in talking heads.
_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class FfnParams:
    """Position-wise two-layer feed-forward: relu(x W1 + b1) W2 + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("W1/W2 inner dimensions do not match")
        if self.b1.shape != (self.w1.shape[1],):
            raise ValueError("b1 shape mismatch")
        if self.b2.shape != (self.w2.shape[1],):
            raise ValueError("b2 shape mismatch")

    @classmethod
    def identity(cls, d: int) -> "FfnParams":
        """The exact identity relu(x) - relu(-x): W1 = [I, -I], W2 = [I; -I]."""
        eye = np.eye(d)
        return cls(w1=np.hstack([eye, -eye]), b1=np.zeros(2 * d),
                   w2=np.vstack([eye, -eye]), b2=np.zeros(d))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._output(self._hidden(x))

    # Each product is a fresh array; the bias and the rectifier work in it
    # when that gives the dtype of the out-of-place result.
    def _hidden(self, x: np.ndarray) -> np.ndarray:
        """relu(x W1 + b1)."""
        if x.shape[-1] != self.w1.shape[0]:
            raise ValueError(
                f"input width {x.shape[-1]} != W1 rows {self.w1.shape[0]}"
            )
        h = _add_bias(x @ self.w1, self.b1)
        return np.maximum(h, 0.0, out=h if h.dtype == np.result_type(h, 0.0) else None)

    def _output(self, h: np.ndarray) -> np.ndarray:
        """h W2 + b2."""
        return _add_bias(h @ self.w2, self.b2)


def _add_bias(product: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """product + bias, computed in `product` (a temporary the caller owns)
    when it already has the sum's dtype."""
    if product.dtype != np.result_type(product, bias):
        return product + bias
    product += bias
    return product


def aan_context(y: np.ndarray, ffn: FfnParams) -> np.ndarray:
    """Causal cumulative average of the input rows, then the FFN.

    Row i of the output depends only on rows 0..i of y.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError("y must be a (t, d) matrix with t >= 1")
    t = y.shape[0]
    cum_mean = np.cumsum(y, axis=0)
    cum_mean /= np.arange(1, t + 1)[:, None]
    hidden = ffn._hidden(cum_mean)
    # Freed before the output product: at most two of the three temporaries
    # are held at once (6 MB at the benchmark shapes, not 8), and a freed
    # 8 MB would be trimmed from the heap (see the module docstring).
    del cum_mean
    return ffn._output(hidden)


def _require_keys(n: int) -> None:
    if n == 0:
        raise ValueError("k and v have no rows: softmax over an empty key set is undefined")


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax over the last axis, computed in x itself
    and returned: callers pass a temporary they own."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def standard_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(Q K^T / sqrt(d_k)) V with row-stabilized softmax."""
    q, k, v = (np.asarray(a, dtype=float) for a in (q, k, v))
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ValueError("q and k widths differ")
    if k.shape[0] != v.shape[0]:
        raise ValueError("k and v row counts differ")
    _require_keys(k.shape[0])
    logits = q @ k.T
    logits /= np.sqrt(q.shape[1])
    return _softmax_rows(logits) @ v


def talking_heads_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    w_logits: np.ndarray,
    w_scores: np.ndarray,
) -> np.ndarray:
    """Multi-head attention with learned head mixing of the logits
    (before softmax) and of the scores (after softmax, before V).

    q, k, v are stacked per head: (H, m, d_k), (H, n, d_k), (H, n, d_v).
    w_logits and w_scores are HxH; mixing acts along the head axis,
    elementwise over the (query, key) grid. Returns (H, m, d_v).

    Queries are taken a block of rows at a time; every step of a block
    works in one of two block buffers, and `@ v` writes into the output.
    """
    q, k, v = (np.asarray(a, dtype=float) for a in (q, k, v))
    w_logits = np.asarray(w_logits, dtype=float)
    w_scores = np.asarray(w_scores, dtype=float)
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ValueError("q, k, v must be stacked per head, 3-D")
    h = q.shape[0]
    if k.shape[0] != h or v.shape[0] != h:
        raise ValueError("head counts differ")
    if q.shape[2] != k.shape[2] or k.shape[1] != v.shape[1]:
        raise ValueError("per-head shapes incompatible")
    if w_logits.shape != (h, h) or w_scores.shape != (h, h):
        raise ValueError(f"head-mixing matrices must be {h}x{h}")
    m, n = q.shape[1], k.shape[1]
    _require_keys(n)
    rows = max(1, _BLOCK_BYTES // max(8 * h * n, 1))
    k_t = k.transpose(0, 2, 1)
    # w.T @ (H, rows * n) mixes the heads in one GEMM, the same products
    # as np.einsum("hmn,hg->gmn", ..., optimize=True) over the full grid.
    mix_logits, mix_scores = w_logits.T, w_scores.T
    scale = np.sqrt(q.shape[2])
    out = np.empty((h, m, v.shape[2]))
    logits_buf = np.empty(h * min(rows, m) * n)
    probs_buf = np.empty_like(logits_buf)
    for start in range(0, m, rows):
        count = min(rows, m - start)
        block, grid, size = (h, count, n), (h, count * n), h * count * n
        logits = np.matmul(q[:, start:start + count], k_t,
                           out=logits_buf[:size].reshape(block))
        logits /= scale
        probs = np.matmul(mix_logits, logits.reshape(grid), out=probs_buf[:size].reshape(grid))
        _softmax_rows(probs.reshape(block))
        # The mixed scores overwrite the logits, which are no longer needed.
        np.matmul(mix_scores, probs, out=logits.reshape(grid))
        np.matmul(logits, v, out=out[:, start:start + count])
    return out

"""Shared numerics for all attention implementations.

Array conventions used throughout :mod:`repro.attention`:

* queries ``q``: ``(H, S_q, d)`` -- head-major, no batch dimension (the
  paper benchmarks batch size 1 to reach long sequence lengths).
* keys/values ``k``, ``v``: ``(H_kv, S_k, d)`` where ``H_kv`` divides ``H``
  (grouped-query attention); ``H_kv == H`` is ordinary multi-head attention.
* When ``S_q < S_k`` the queries are *right-aligned*: query row ``i``
  corresponds to absolute position ``S_k - S_q + i``, which is the layout
  of both chunked prefill and single-token decode.

Everything is computed in float32 by default with float32 accumulation,
mirroring the numerics of an fp16-input/fp32-accumulate GPU kernel closely
enough for the library's tolerance-based kernel tests.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = [
    "NEG_INF",
    "EXP_CLAMP",
    "softmax",
    "causal_mask",
    "validate_qkv",
    "expand_kv",
    "grouped_qk",
    "grouped_pv",
    "attention_scores",
    "masked_row_softmax",
]

NEG_INF = np.float32(-1e30)
"""Additive mask value; large enough to zero a float32 softmax entry."""


#: Floor for stabilised (row-max-shifted) scores before ``exp``.  An entry
#: this far below its row max carries < 1e-26 relative mass -- invisible
#: in a float32 row sum -- while ``exp`` of anything much lower lands in
#: numpy's underflow slow path or yields subnormal floats, and a GEMM fed
#: subnormal weights pays a per-FMA microcode assist.  The value stays
#: well above ``log(FLT_MIN)`` (~-87.3), so ``exp(EXP_CLAMP)`` (~9e-27) is
#: a normal float.
EXP_CLAMP = np.float32(-60.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable, subnormal-free softmax along ``axis``.

    Scores are shifted by their row max and clamped at :data:`EXP_CLAMP`;
    entries at or below the clamp become exact zeros, so no output (and
    no product of an output with a normal value) is subnormal.  The mass
    dropped is below float32 resolution of the row sum.

    Rows that are entirely ``-inf``-like (all entries below ``NEG_INF/2``)
    produce all-zero probability rows instead of NaN, which is the behaviour
    a sparse kernel exhibits for a fully masked row.
    """
    x = np.asarray(x)
    m = np.max(x, axis=axis, keepdims=True)
    e = x - np.where(m <= NEG_INF / 2, 0.0, m)
    np.maximum(e, EXP_CLAMP, out=e)
    flushed = e <= EXP_CLAMP
    np.exp(e, out=e)
    e[flushed] = 0.0
    z = np.sum(e, axis=axis, keepdims=True)
    z[z == 0.0] = 1.0
    return e / z


def causal_mask(s_q: int, s_k: int) -> np.ndarray:
    """Boolean ``(s_q, s_k)`` mask, ``True`` where attention is allowed.

    Queries are right-aligned: row ``i`` sits at absolute position
    ``s_k - s_q + i`` and may attend to keys ``j <= s_k - s_q + i``.
    Requires ``s_q <= s_k``.
    """
    if s_q > s_k:
        raise ShapeError(f"causal_mask requires s_q <= s_k, got {s_q} > {s_k}")
    offset = s_k - s_q
    rows = np.arange(s_q)[:, None] + offset
    cols = np.arange(s_k)[None, :]
    return cols <= rows


def validate_qkv(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> tuple[int, int, int, int, int]:
    """Validate shapes and return ``(H, H_kv, S_q, S_k, d)``.

    Raises :class:`~repro.errors.ShapeError` on any inconsistency,
    including a head count that is not a multiple of the KV head count.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(
            "q, k, v must be rank-3 (H, S, d); got ranks "
            f"{q.ndim}, {k.ndim}, {v.ndim}"
        )
    h, s_q, d = q.shape
    h_kv, s_k, d_k = k.shape
    if v.shape != (h_kv, s_k, d_k):
        raise ShapeError(f"v shape {v.shape} != k shape {k.shape}")
    if d != d_k:
        raise ShapeError(f"head dim mismatch: q has d={d}, k has d={d_k}")
    if h_kv == 0 or h % h_kv != 0:
        raise ShapeError(f"H={h} must be a positive multiple of H_kv={h_kv}")
    if s_q > s_k:
        raise ShapeError(f"S_q={s_q} must be <= S_k={s_k} (right-aligned queries)")
    return h, h_kv, s_q, s_k, d


def expand_kv(x: np.ndarray, n_rep: int) -> np.ndarray:
    """Repeat KV heads for grouped-query attention.

    ``(H_kv, S, d) -> (H_kv * n_rep, S, d)`` where consecutive groups of
    ``n_rep`` query heads share one KV head, matching the layout used by
    LLaMA-family ``repeat_kv``.
    """
    if n_rep == 1:
        return x
    h_kv, s, d = x.shape
    return np.broadcast_to(x[:, None], (h_kv, n_rep, s, d)).reshape(
        h_kv * n_rep, s, d
    )


def grouped_qk(
    q: np.ndarray, k: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Score GEMM ``q @ k^T`` without materialising repeated KV heads.

    ``(H, S_q, d) x (H_kv, S_k, d) -> (H, S_q, S_k)``.  Under GQA the query
    heads are viewed as ``(H_kv, n_rep, S_q, d)`` and ``k`` broadcasts as
    ``(H_kv, 1, S_k, d)`` through one batched :func:`numpy.matmul`, so the
    ``O(H * S_k * d)`` :func:`expand_kv` copy (and einsum path re-planning)
    never happens.  Splitting the leading head axis is stride-preserving,
    so views (e.g. query tiles) reshape without copying.

    ``out`` optionally receives the scores in place; it may be a column
    slice of a wider score buffer (run-segmented KV writes one slice per
    run).
    """
    h, s_q, d = q.shape
    h_kv, s_k = k.shape[0], k.shape[1]
    if out is None:
        out = np.empty((h, s_q, s_k), dtype=np.result_type(q, k))
    if h == h_kv:
        return np.matmul(q, k.transpose(0, 2, 1), out=out)
    # Splitting the head axis is a view, even of a column slice, so the
    # GEMM writes straight into ``out``.
    n_rep = h // h_kv
    np.matmul(
        q.reshape(h_kv, n_rep, s_q, d),
        k[:, None].transpose(0, 1, 3, 2),
        out=out.reshape(h_kv, n_rep, s_q, s_k),
    )
    return out


def grouped_pv(
    p: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Output GEMM ``p @ v`` without materialising repeated KV heads.

    ``(H, S_q, S_k) x (H_kv, S_k, d) -> (H, S_q, d)``; the GQA counterpart
    of :func:`grouped_qk` for the probability-times-values contraction.
    ``p`` may be a column slice of a wider probability buffer; ``out``
    optionally receives the result in place.
    """
    h, s_q, s_k = p.shape
    h_kv, _, d = v.shape
    if out is None:
        out = np.empty((h, s_q, d), dtype=np.result_type(p, v))
    if h == h_kv:
        return np.matmul(p, v, out=out)
    n_rep = h // h_kv
    np.matmul(
        p.reshape(h_kv, n_rep, s_q, s_k),
        v[:, None],
        out=out.reshape(h_kv, n_rep, s_q, d),
    )
    return out


def attention_scores(
    q: np.ndarray, k: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Scaled dot-product logits ``(H, S_q, S_k)`` (GQA-aware).

    ``scale`` defaults to ``1/sqrt(d)``.
    """
    h, h_kv, _, _, d = validate_qkv(q, k, k)
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    return grouped_qk(q, k) * np.float32(scale)


def masked_row_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of ``scores`` restricted to ``mask`` (broadcast over heads).

    ``mask`` is boolean with ``True`` = keep; fully masked rows yield zeros.
    """
    masked = np.where(mask, scores, NEG_INF)
    return softmax(masked, axis=-1)

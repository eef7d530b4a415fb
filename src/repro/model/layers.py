"""Decoder building blocks: normalisation, gated MLP, attention layer.

The attention layer owns the projection + rotary plumbing and delegates the
actual score/softmax/value computation to an
:class:`~repro.backends.AttentionBackend`, which is how the harness swaps
SampleAttention and the baselines in and out per run -- mirroring the paper,
which replaces only the prefill attention implementation.
"""

from __future__ import annotations

import numpy as np

from ..attention.dense import dense_attention
from ..attention.packed import PackedDecodeItem, packed_decode_attention
from ..backends import AttentionBackend
from ..errors import ModelError
from .config import ModelConfig
from .kv_cache import LayerKVCache
from .rope import apply_rope, apply_rope_batched, rope_cos_sin
from .weights import LayerWeights

__all__ = ["rms_norm", "gated_mlp", "gated_mlp_rows", "AttentionLayer"]


def rms_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square normalisation over the last axis (no learned gain)."""
    rms = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / rms


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def gated_mlp(x: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray) -> np.ndarray:
    """SwiGLU feed-forward: ``(silu(x @ w1) * (x @ w3)) @ w2``."""
    return (_silu(x @ w1) * (x @ w3)) @ w2


def gated_mlp_rows(
    x_rows: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray
) -> np.ndarray:
    """Row-batched :func:`gated_mlp` over ``(B, d_model)`` residual rows.

    The three projections stay one GEMM *per row* (a batched M=B GEMM
    takes a different BLAS accumulation path than M=1, so its rows would
    not be bitwise equal to per-request decode), while the elementwise
    SiLU gate runs once over the stacked activations.  Row *b* of the
    result is bitwise identical to ``gated_mlp(x_rows[b:b+1], ...)``.
    """
    n = x_rows.shape[0]
    a = np.concatenate([x_rows[b : b + 1] @ w1 for b in range(n)], axis=0)
    c = np.concatenate([x_rows[b : b + 1] @ w3 for b in range(n)], axis=0)
    g = _silu(a) * c
    return np.concatenate([g[b : b + 1] @ w2 for b in range(n)], axis=0)


class AttentionLayer:
    """One decoder layer's attention: project, rotate, attend, merge.

    The layer is stateless with respect to sequences; the caller supplies
    the residual stream and (for decode) the KV cache.
    """

    def __init__(self, config: ModelConfig, weights: LayerWeights) -> None:
        weights.validate(config)
        self.config = config
        self.weights = weights
        self._scale = 1.0 / np.sqrt(config.d_head)
        self._decode_proj: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------- helpers
    def project_qkv(
        self, x: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project the normalised residual to rotated q/k and raw v.

        ``x``: ``(S, d_model)``; ``positions``: absolute positions for the
        rotary tables.  Returns ``q (H, S, e)``, ``k (H_kv, S, e)``,
        ``v (H_kv, S, e)``.
        """
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ModelError(f"residual shape {x.shape}")
        q = np.einsum("sd,hde->hse", x, self.weights.wq, optimize=True)
        k = np.einsum("sd,gde->gse", x, self.weights.wk, optimize=True)
        v = np.einsum("sd,gde->gse", x, self.weights.wv, optimize=True)
        cos, sin = rope_cos_sin(
            positions, self.config.rot_dim, self.config.rope_base
        )
        q = apply_rope(q, cos, sin)
        k = apply_rope(k, cos, sin)
        return q.astype(np.float32), k.astype(np.float32), v.astype(np.float32)

    def project_qkv_batch(
        self,
        xs: list[np.ndarray],
        positions_list: list[np.ndarray],
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batched :meth:`project_qkv` over equal-length residual chunks.

        Stacks the ``B`` chunks into one ``(B, S, d_model)`` tensor so each
        of the three projections runs as a single GEMM instead of ``B``;
        rotary tables are still applied per chunk (absolute positions
        differ across requests).  Per-entry results are bitwise identical
        to calling :meth:`project_qkv` on each chunk individually -- the
        batched einsum contracts the same (d,) axis in the same order per
        output row.
        """
        if not xs or len(xs) != len(positions_list):
            raise ModelError(
                f"project_qkv_batch needs matched non-empty lists, got "
                f"{len(xs)} chunks / {len(positions_list)} position sets"
            )
        s = xs[0].shape[0]
        for x in xs:
            if x.ndim != 2 or x.shape != (s, self.config.d_model):
                raise ModelError(
                    f"project_qkv_batch residual shape {x.shape}; expected "
                    f"({s}, {self.config.d_model}) uniformly"
                )
        xb = np.stack(xs)
        qb = np.einsum("bsd,hde->bhse", xb, self.weights.wq, optimize=True)
        kb = np.einsum("bsd,gde->bgse", xb, self.weights.wk, optimize=True)
        vb = np.einsum("bsd,gde->bgse", xb, self.weights.wv, optimize=True)
        out = []
        for b, positions in enumerate(positions_list):
            cos, sin = rope_cos_sin(
                positions, self.config.rot_dim, self.config.rope_base
            )
            q = apply_rope(qb[b], cos, sin)
            k = apply_rope(kb[b], cos, sin)
            out.append(
                (
                    q.astype(np.float32),
                    k.astype(np.float32),
                    vb[b].astype(np.float32),
                )
            )
        return out

    def project_qkv_decode_batch(
        self, x_rows: np.ndarray, cos: np.ndarray, sin: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched single-token :meth:`project_qkv` for fused decode.

        ``x_rows``: ``(B, d_model)`` normalised residual rows, one per
        decoding request; ``cos``/``sin``: ``(B, n_pairs)`` rotary rows
        for each request's position (precomputed once per batch step and
        shared across layers -- the tables depend only on position, so
        per-request decode recomputing them per layer does 4x the work
        for bitwise-identical values).  The three projections stay one
        einsum *per row* (a stacked M=B GEMM takes a different BLAS
        accumulation path than M=1, breaking bitwise parity with
        per-request decode), while the rotary rotation and the float32
        casts -- pure elementwise work -- run once over the stacked batch.

        Returns ``q (B, H, 1, e)``, ``k (B, H_kv, 1, e)``,
        ``v (B, H_kv, 1, e)``; slice ``[b]`` is bitwise identical to
        :meth:`project_qkv` on row ``b`` alone.

        The projections bypass ``np.einsum`` dispatch: for ``S = 1`` the
        optimizer reduces ``sd,hde->hse`` to a tensordot that copies the
        transposed weight and runs one GEMV per call.  We hoist that copy
        into a cached ``(H*e, d)`` operand (:meth:`_decode_proj_weights`)
        and issue the same ``np.dot`` directly -- identical memory layout
        and BLAS call, so the result stays bitwise equal while skipping
        ~90% of the per-call overhead that dominates single-token decode.
        """
        n = x_rows.shape[0]
        if x_rows.ndim != 2 or x_rows.shape[1] != self.config.d_model:
            raise ModelError(f"residual rows shape {x_rows.shape}")
        h, h_kv = self.config.n_heads, self.config.n_kv_heads
        e, d = self.config.d_head, self.config.d_model
        pq, pk, pv = self._decode_proj_weights()
        cols = [x_rows[b].reshape(d, 1) for b in range(n)]
        qs = np.stack(
            [np.dot(pq, c).reshape(h, e, 1).transpose(0, 2, 1) for c in cols]
        )
        ks = np.stack(
            [np.dot(pk, c).reshape(h_kv, e, 1).transpose(0, 2, 1) for c in cols]
        )
        vs = np.stack(
            [np.dot(pv, c).reshape(h_kv, e, 1).transpose(0, 2, 1) for c in cols]
        )
        cb = cos[:, None, :]  # (B, S=1, n_pairs)
        sb = sin[:, None, :]
        q = apply_rope_batched(qs, cb, sb)
        k = apply_rope_batched(ks, cb, sb)
        return (
            q.astype(np.float32),
            k.astype(np.float32),
            vs.astype(np.float32),
        )

    def _decode_proj_weights(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-transposed ``(H*e, d_model)`` projection operands for decode.

        ``np.einsum("sd,hde->hse", x, w, optimize=True)`` at ``S = 1``
        contracts via ``tensordot(w, x)``, which copies
        ``w.transpose(0, 2, 1)`` into a fresh C-contiguous ``(H*e, d)``
        array on *every* call before one GEMV.  Caching that copy keeps
        the downstream BLAS call -- and therefore the bits -- identical
        while amortising the transpose across the whole decode.
        """
        if self._decode_proj is None:
            h_e = self.config.n_heads * self.config.d_head
            g_e = self.config.n_kv_heads * self.config.d_head
            d = self.config.d_model
            self._decode_proj = (
                np.ascontiguousarray(
                    self.weights.wq.transpose(0, 2, 1).reshape(h_e, d)
                ),
                np.ascontiguousarray(
                    self.weights.wk.transpose(0, 2, 1).reshape(g_e, d)
                ),
                np.ascontiguousarray(
                    self.weights.wv.transpose(0, 2, 1).reshape(g_e, d)
                ),
            )
        return self._decode_proj

    def merge_heads(self, attn_out: np.ndarray) -> np.ndarray:
        """``(H, S, e) -> (S, d_model)`` via the output projection."""
        return np.einsum("hse,hed->sd", attn_out, self.weights.wo, optimize=True)

    def merge_heads_decode(self, attn_out: np.ndarray) -> np.ndarray:
        """``(H, 1, e) -> (1, d_model)``: :meth:`merge_heads` without the
        einsum dispatch.

        For ``S = 1`` the einsum reduces to flattening heads and one
        ``(1, H*e) @ (H*e, d_model)`` GEMM against a view of ``wo``; the
        result is bitwise identical to :meth:`merge_heads` (verified by
        the decode parity tests) at a fraction of the call overhead.
        """
        h, e = self.config.n_heads, self.config.d_head
        flat = attn_out.transpose(1, 0, 2).reshape(1, h * e)
        return flat @ self.weights.wo.reshape(h * e, self.config.d_model)

    # ------------------------------------------------------------- prefill
    def prefill(
        self,
        x: np.ndarray,
        backend: AttentionBackend,
        *,
        cache: LayerKVCache | None = None,
        prob_hook=None,
        layer_index: int = 0,
    ) -> np.ndarray:
        """Full-sequence attention through ``backend``.

        Returns the residual *delta* (caller adds it).  When ``cache`` is
        given, the rotated keys/values are appended for later decoding.
        ``prob_hook(probs)`` -- if provided -- receives the *dense full
        attention* probabilities ``(H, S, S)`` for analysis (computed with
        the gold kernel regardless of ``backend``; expensive).
        """
        s = x.shape[0]
        positions = np.arange(s, dtype=np.int64)
        q, k, v = self.project_qkv(x, positions)
        out = backend.prefill(q, k, v, scale=self._scale, layer=layer_index)
        if cache is not None:
            cache.append(k, v, positions)
        if prob_hook is not None:
            probs = dense_attention(
                q, k, v, causal=True, scale=self._scale, return_probs=True
            ).probs
            prob_hook(probs)
        return self.merge_heads(out)

    # -------------------------------------------------------------- decode
    def decode_step(
        self,
        x: np.ndarray,
        position: int,
        cache: LayerKVCache,
        *,
        record_attention: bool = False,
    ) -> np.ndarray:
        """Single-token attention against the cache (dense, as in the paper).

        ``x``: ``(1, d_model)`` residual row for the new token.  Appends the
        new KV entry, attends over the whole cache -- a one-item
        :func:`~repro.attention.packed.packed_decode_attention` call over
        the cache's run views, the kernel batched decode uses -- and
        optionally records per-key attention mass for eviction policies.
        """
        pos = np.asarray([position], dtype=np.int64)
        q, k, v = self.project_qkv(x, pos)
        cache.append(k, v, pos)
        res = packed_decode_attention(
            [PackedDecodeItem(q=q, kv=cache.kv_runs(), scale=self._scale)],
            return_probs=record_attention,
        )
        if record_attention:
            cache.record_attention(res.probs[0])
        return self.merge_heads(res.outputs[0])

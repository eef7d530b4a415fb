"""Geometry fuzzer: adversarial attention-call shapes vs the dense oracle.

Every way this package can compute attention -- dense, tiled flash, the
three block-sparse kernel modes, the striped executor, the full Algorithm-1
pipeline, the serving chain's ``plan -> PlanCache.get/extended ->
execute`` reuse path, the paged-KV gather feeding all of them, and the
packed cross-request dispatch batching ragged items into one call -- must
agree with the masked-dense gold standard on *every* geometry, not just
the hand-picked shapes unit tests use.  This
module samples the shapes that historically break index-built sparse
kernels:

* ragged tails (``S % block_size != 0``) and single-token sequences,
* chunked-prefill offsets (``s_q < s_k``, right-aligned queries),
* GQA ratios, including head counts that are not multiples of the
  fast path's pattern-group sizes,
* empty and full per-head stripe sets,
* ``window`` at its extremes (``0`` -- must be rejected -- ``1``, ``s_k``),
* ``alpha``/``r_row``/``min_keep`` at their domain edges.

A failing case is shrunk greedily to a minimal counterexample so the
report names the smallest geometry that still diverges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..attention.dense import dense_attention
from ..attention.fastpath import (
    KernelWorkspace,
    dispatch_block_sparse,
    fast_block_sparse_attention,
)
from ..attention.flash import flash_attention
from ..attention.masks import (
    BlockMask,
    dense_rows_block_mask,
    sink_block_mask,
    stripe_block_mask,
    window_block_mask,
)
from ..attention.striped import striped_attention
from ..config import KERNEL_MODES, SampleAttentionConfig
from ..core.plan import SparsePlan
from ..core.sample_attention import plan_sample_attention, sample_attention
from ..errors import ConfigError, MaskError, ReproError
from ..memory import KVArena, PagedLayerKVCache
from ..model.kv_cache import LayerKVCache
from ..serving.plan_cache import PlanCache

__all__ = [
    "AUDIT_AREAS",
    "TOLERANCE",
    "GeometryCase",
    "CaseResult",
    "sample_case",
    "sample_cases",
    "run_case",
    "shrink_case",
]

#: Maximum |sparse - oracle| tolerated anywhere (float32 softmax
#: re-association across tilings); same constant the kernel bench gates on.
TOLERANCE = 2e-5

#: The cross-checked areas, in execution-chain order.
AUDIT_AREAS = (
    "kernels", "striped", "pipeline", "serving", "providers", "paged",
    "packed", "packed_decode",
)

_STRIPE_MODES = ("empty", "full", "random")


@dataclass(frozen=True)
class GeometryCase:
    """One fuzzed attention-call geometry (fully determined by its fields;
    tensors and stripe sets are re-derived from ``seed``)."""

    seed: int
    h: int
    h_kv: int
    s_q: int
    s_k: int
    d: int
    block_size: int
    window: int
    stripe_mode: str
    sink_tokens: int
    dense_last_rows: int
    alpha: float
    r_row: float
    min_keep: int

    def describe(self) -> dict:
        """JSON-ready field dump (the counterexample format)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one (case, area) cross-check."""

    area: str
    passed: bool
    divergence: float
    detail: str
    checks: int = 1


def sample_case(rng: np.random.Generator) -> GeometryCase:
    """Draw one adversarial geometry from the fuzz distribution."""
    block_size = int(rng.choice([8, 16, 32]))
    # Bias towards ragged tails: half the draws land off the block grid.
    s_k = int(rng.integers(1, 97))
    if s_k > block_size and s_k % block_size == 0 and rng.random() < 0.5:
        s_k += int(rng.integers(1, block_size))
    # Chunked-prefill offset: half the calls have fewer queries than keys.
    s_q = s_k if rng.random() < 0.5 else int(rng.integers(1, s_k + 1))
    h_kv = int(rng.choice([1, 2, 3]))
    h = h_kv * int(rng.choice([1, 2, 3, 5]))
    d = int(rng.choice([1, 4, 16]))
    window_draw = rng.random()
    if window_draw < 0.15:
        window = 0  # must be rejected by the builders
    elif window_draw < 0.35:
        window = 1
    elif window_draw < 0.5:
        window = s_k
    else:
        window = int(rng.integers(1, s_k + 1))
    return GeometryCase(
        seed=int(rng.integers(0, 2**31 - 1)),
        h=h,
        h_kv=h_kv,
        s_q=s_q,
        s_k=s_k,
        d=d,
        block_size=block_size,
        window=window,
        stripe_mode=str(rng.choice(_STRIPE_MODES)),
        sink_tokens=int(rng.choice([0, 1, 4])),
        dense_last_rows=int(rng.choice([0, 1, s_q])),
        alpha=float(rng.choice([0.05, 0.5, 0.95, 0.999, 1.0])),
        r_row=float(rng.choice([0.01, 0.05, 0.3, 1.0])),
        min_keep=int(rng.choice([0, 1, 2, s_k])),
    )


def sample_cases(seed: int, n: int) -> list[GeometryCase]:
    """``n`` deterministic cases from one campaign seed."""
    rng = np.random.default_rng((0x5A1E, seed))
    return [sample_case(rng) for _ in range(n)]


# --------------------------------------------------------------------------
# Deterministic case materialisation.
# --------------------------------------------------------------------------


def _qkv(case: GeometryCase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(case.seed)
    q = rng.standard_normal((case.h, case.s_q, case.d), dtype=np.float32)
    k = rng.standard_normal((case.h_kv, case.s_k, case.d), dtype=np.float32)
    v = rng.standard_normal((case.h_kv, case.s_k, case.d), dtype=np.float32)
    return q, k, v


def _stripes(case: GeometryCase) -> list[np.ndarray]:
    rng = np.random.default_rng(case.seed + 1)
    out: list[np.ndarray] = []
    for _ in range(case.h):
        if case.stripe_mode == "empty":
            idx = np.empty(0, dtype=np.int64)
        elif case.stripe_mode == "full":
            idx = np.arange(case.s_k, dtype=np.int64)
        else:
            n = int(rng.integers(0, case.s_k + 1))
            idx = np.sort(
                rng.choice(case.s_k, size=n, replace=False)
            ).astype(np.int64)
        out.append(idx)
    return out


def _merged_block_mask(case: GeometryCase, stripes: list[np.ndarray]) -> BlockMask:
    """window ∪ stripes ∪ sinks ∪ bottom rows at tile granularity (the same
    merge :meth:`SparsePlan.to_block_mask` performs)."""
    mask = window_block_mask(
        case.h, case.s_q, case.s_k, case.block_size, case.window
    )
    mask = mask | stripe_block_mask(stripes, case.s_q, case.s_k, case.block_size)
    if case.sink_tokens > 0:
        mask = mask | sink_block_mask(
            case.h, case.s_q, case.s_k, case.block_size, case.sink_tokens
        )
    if case.dense_last_rows > 0:
        mask = mask | dense_rows_block_mask(
            case.h, case.s_q, case.s_k, case.block_size, case.dense_last_rows
        )
    return mask


def _element_mask(
    h: int,
    s_q: int,
    s_k: int,
    window: int,
    stripes: list[np.ndarray],
    sink_tokens: int,
    dense_last_rows: int,
) -> np.ndarray:
    """Elementwise ``(H, s_q, s_k)`` oracle mask for the striped executor:
    band ``(p - window, p]`` ∪ causal stripes ∪ sinks ∪ dense last rows."""
    offset = s_k - s_q
    rows = np.arange(s_q, dtype=np.int64)[:, None] + offset  # absolute pos
    cols = np.arange(s_k, dtype=np.int64)[None, :]
    causal = cols <= rows
    band = causal & (cols > rows - window)
    sinks = np.arange(min(max(sink_tokens, 0), s_k), dtype=np.int64)
    mask = np.zeros((h, s_q, s_k), dtype=bool)
    for hh in range(h):
        keep = np.zeros(s_k, dtype=bool)
        keep[np.union1d(stripes[hh], sinks).astype(np.int64)] = True
        mask[hh] = band | (keep[None, :] & causal)
    if dense_last_rows > 0:
        start = max(s_q - dense_last_rows, 0)
        mask[:, start:] = causal[start:]
    return mask


def _plan_element_mask(plan: SparsePlan) -> np.ndarray:
    """Elementwise oracle mask for a :class:`SparsePlan` execution,
    including any ``extras["bands"]`` diagonal bands the striped kernel
    covers (a band ``(lo, hi)`` holds elements with ``lo <= row_pos - col
    < hi``, shared across heads)."""
    mask = _element_mask(
        plan.n_heads,
        plan.s_q,
        plan.s_k,
        plan.window,
        plan.kv_indices,
        plan.config.sink_tokens,
        plan.config.dense_last_rows,
    )
    bands = plan.extras.get("bands") or []
    if bands:
        offset = plan.s_k - plan.s_q
        rows = np.arange(plan.s_q, dtype=np.int64)[:, None] + offset
        cols = np.arange(plan.s_k, dtype=np.int64)[None, :]
        delta = rows - cols
        causal = delta >= 0
        for lo, hi in bands:
            mask |= (causal & (delta >= lo) & (delta < hi))[None]
    return mask


def _config(case: GeometryCase) -> SampleAttentionConfig:
    return SampleAttentionConfig(
        alpha=case.alpha,
        r_row=case.r_row,
        r_window=min(1.0, max(case.window, 1) / max(case.s_k, 1)),
        block_size=case.block_size,
        sink_tokens=case.sink_tokens,
        min_keep=case.min_keep,
        dense_last_rows=case.dense_last_rows,
    )


def _divergence(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max()) if a.size else 0.0


# --------------------------------------------------------------------------
# Area checkers.  Each returns a CaseResult; raising is a checker bug.
# --------------------------------------------------------------------------


def _check_kernels(case: GeometryCase) -> CaseResult:
    """flash vs dense-causal, and every block-sparse kernel mode vs the
    masked-dense oracle on the merged tile mask."""
    q, k, v = _qkv(case)
    stripes = _stripes(case)
    if case.window == 0:
        try:
            window_block_mask(
                case.h, case.s_q, case.s_k, case.block_size, 0
            )
        except MaskError:
            return CaseResult("kernels", True, 0.0, "window=0 rejected")
        return CaseResult(
            "kernels", False, float("inf"), "window=0 accepted by builder"
        )
    mask = _merged_block_mask(case, stripes)

    worst, worst_detail, checks = 0.0, "", 0
    flash = flash_attention(q, k, v)
    oracle_causal = dense_attention(q, k, v).output
    div = _divergence(flash, oracle_causal)
    checks += 1
    if div > worst:
        worst, worst_detail = div, "flash vs dense"

    oracle = dense_attention(q, k, v, mask=mask.to_dense()).output
    workspace = KernelWorkspace()
    for mode in KERNEL_MODES:
        out = dispatch_block_sparse(
            q, k, v, mask, kernel_mode=mode, workspace=workspace
        ).output
        div = _divergence(out, oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"{mode} vs masked dense"
    return CaseResult(
        "kernels",
        worst <= TOLERANCE,
        worst,
        worst_detail or "all paths agree",
        checks=checks,
    )


def _check_striped(case: GeometryCase) -> CaseResult:
    """striped executor vs the elementwise band ∪ stripe ∪ sink oracle."""
    q, k, v = _qkv(case)
    stripes = _stripes(case)
    if case.window == 0:
        try:
            striped_attention(
                q,
                k,
                v,
                0,
                stripes,
                sink_tokens=case.sink_tokens,
                dense_last_rows=case.dense_last_rows,
            )
        except (ConfigError, MaskError):
            return CaseResult("striped", True, 0.0, "window=0 rejected")
        return CaseResult(
            "striped", False, float("inf"), "window=0 accepted by executor"
        )
    out = striped_attention(
        q,
        k,
        v,
        case.window,
        stripes,
        sink_tokens=case.sink_tokens,
        dense_last_rows=case.dense_last_rows,
        block_size=max(case.block_size, 1),
    ).output
    oracle_mask = _element_mask(
        case.h,
        case.s_q,
        case.s_k,
        case.window,
        stripes,
        case.sink_tokens,
        case.dense_last_rows,
    )
    oracle = dense_attention(q, k, v, mask=oracle_mask).output
    div = _divergence(out, oracle)
    return CaseResult(
        "striped", div <= TOLERANCE, div, "striped vs elementwise oracle"
    )


def _check_pipeline(case: GeometryCase) -> CaseResult:
    """Full Algorithm 1: plan, then both executors vs their oracles."""
    q, k, v = _qkv(case)
    cfg = _config(case)
    plan = plan_sample_attention(q, k, cfg)
    if not plan.validate():
        return CaseResult(
            "pipeline", False, float("inf"), "fresh plan fails validate()"
        )
    worst, worst_detail, checks = 0.0, "", 0

    striped_out = sample_attention(q, k, v, cfg, plan=plan).output
    oracle = dense_attention(q, k, v, mask=_plan_element_mask(plan)).output
    div = _divergence(striped_out, oracle)
    checks += 1
    if div > worst:
        worst, worst_detail = div, "pipeline striped vs oracle"

    block_oracle = dense_attention(
        q, k, v, mask=plan.to_block_mask().to_dense()
    ).output
    workspace = KernelWorkspace()
    for mode in KERNEL_MODES:
        out = sample_attention(
            q,
            k,
            v,
            cfg,
            plan=plan,
            execution="block",
            kernel_mode=mode,
            workspace=workspace,
        ).output
        div = _divergence(out, block_oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"pipeline block[{mode}] vs oracle"
    return CaseResult(
        "pipeline",
        worst <= TOLERANCE,
        worst,
        worst_detail or "pipeline agrees",
        checks=checks,
    )


def _check_serving(case: GeometryCase) -> CaseResult:
    """Serving chain: plan on the first prefix chunk, reuse through
    ``PlanCache.get`` (which re-geometries via ``SparsePlan.extended`` and
    validates), execute the reused plan on the grown prefix, and compare
    against the masked-dense oracle of the *extended* plan."""
    if case.s_k < 2:
        return CaseResult("serving", True, 0.0, "skipped: s_k < 2")
    cfg = _config(case)
    rng = np.random.default_rng(case.seed + 2)
    q_full = rng.standard_normal((case.h, case.s_k, case.d), dtype=np.float32)
    k_full = rng.standard_normal(
        (case.h_kv, case.s_k, case.d), dtype=np.float32
    )
    v_full = rng.standard_normal(
        (case.h_kv, case.s_k, case.d), dtype=np.float32
    )

    s_k0 = max(1, case.s_k // 2)
    plan0 = plan_sample_attention(q_full[:, :s_k0], k_full[:, :s_k0], cfg)
    cache = PlanCache(replan_interval=4)
    cache.put(0, 0, plan0, chunk_index=0)

    s_q1 = case.s_k - s_k0
    plan1 = cache.get(0, 0, chunk_index=1, s_q=s_q1, s_k=case.s_k)
    if plan1 is None:
        # A miss inside the replan interval is only legitimate when the
        # extended plan genuinely fails structural validation at the grown
        # geometry (e.g. min_keep larger than the planning-time prefix) --
        # the engine then replans instead of reusing.  A miss on a plan
        # that would have validated is a cache bug.
        try:
            ext = plan0.extended(s_q=s_q1, s_k=case.s_k)
        except ConfigError:
            ext = None
        if ext is not None and ext.validate(s_k=case.s_k):
            return CaseResult(
                "serving",
                False,
                float("inf"),
                "cache missed a valid in-interval, grown-geometry reuse",
            )
        return CaseResult(
            "serving", True, 0.0, "honest miss: extended plan invalid"
        )
    if not plan1.validate(s_k=case.s_k):
        return CaseResult(
            "serving", False, float("inf"), "extended plan fails validate()"
        )
    q1 = q_full[:, s_k0:]
    out = sample_attention(q1, k_full, v_full, cfg, plan=plan1).output
    oracle = dense_attention(
        q1, k_full, v_full, mask=_plan_element_mask(plan1)
    ).output
    div = _divergence(out, oracle)

    # Unchanged-geometry hits must be bitwise-identical object reuse.
    again = cache.get(0, 0, chunk_index=1, s_q=plan0.s_q, s_k=plan0.s_k)
    if again is not plan0:
        return CaseResult(
            "serving",
            False,
            float("inf"),
            "unchanged-geometry cache hit is not the original plan object",
        )
    return CaseResult(
        "serving",
        div <= TOLERANCE,
        div,
        "reused plan vs extended-plan oracle",
        checks=2,
    )


def _check_providers(case: GeometryCase) -> CaseResult:
    """Every plan provider's plan -> execute pipeline vs the masked-dense
    oracle, plus the ``PlanCache.get``/``extended`` serving-reuse path on
    the ragged grown geometry -- one area holding the whole provider zoo
    to the same bar as the default planner."""
    from ..config import PLAN_PROVIDER_NAMES
    from ..core.providers import make_provider

    q, k, v = _qkv(case)
    worst, worst_detail, checks = 0.0, "", 0
    for name in PLAN_PROVIDER_NAMES:
        cfg = _config(case).replace(provider=name)
        # Fresh instance per case: stateful providers must not leak
        # profiles across fuzz cases (determinism of the campaign).
        provider = make_provider(name)
        plan = provider.plan(q, k, cfg)
        checks += 1
        if not plan.validate():
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: fresh plan fails validate()",
                checks=checks,
            )

        striped_out = sample_attention(q, k, v, cfg, plan=plan).output
        oracle = dense_attention(q, k, v, mask=_plan_element_mask(plan)).output
        div = _divergence(striped_out, oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"{name}: striped vs oracle"

        block_out = sample_attention(
            q, k, v, cfg, plan=plan, execution="block"
        ).output
        block_oracle = dense_attention(
            q, k, v, mask=plan.to_block_mask().to_dense()
        ).output
        div = _divergence(block_out, block_oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"{name}: block vs oracle"

        if case.s_k < 2:
            continue
        # Serving reuse: plan at the half prefix, reuse through the cache
        # at the grown ragged geometry (s_q < s_k), execute, compare.
        rng = np.random.default_rng(case.seed + 7)
        q_full = rng.standard_normal(
            (case.h, case.s_k, case.d), dtype=np.float32
        )
        k_full = rng.standard_normal(
            (case.h_kv, case.s_k, case.d), dtype=np.float32
        )
        v_full = rng.standard_normal(
            (case.h_kv, case.s_k, case.d), dtype=np.float32
        )
        s_k0 = max(1, case.s_k // 2)
        plan0 = make_provider(name).plan(
            q_full[:, :s_k0], k_full[:, :s_k0], cfg
        )
        cache = PlanCache(replan_interval=4)
        cache.put(0, 0, plan0, chunk_index=0)
        s_q1 = case.s_k - s_k0
        plan1 = cache.get(0, 0, chunk_index=1, s_q=s_q1, s_k=case.s_k)
        checks += 1
        if plan1 is None:
            try:
                ext = plan0.extended(s_q=s_q1, s_k=case.s_k)
            except ConfigError:
                ext = None
            if ext is not None and ext.validate(s_k=case.s_k):
                return CaseResult(
                    "providers",
                    False,
                    float("inf"),
                    f"{name}: cache missed a valid grown-geometry reuse",
                    checks=checks,
                )
            continue  # honest miss: extended plan genuinely invalid
        if not plan1.validate(s_k=case.s_k):
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: extended plan fails validate()",
                checks=checks,
            )
        out = sample_attention(
            q_full[:, s_k0:], k_full, v_full, cfg, plan=plan1
        ).output
        reuse_oracle = dense_attention(
            q_full[:, s_k0:], k_full, v_full, mask=_plan_element_mask(plan1)
        ).output
        div = _divergence(out, reuse_oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"{name}: reused plan vs oracle"
        again = cache.get(0, 0, chunk_index=1, s_q=plan0.s_q, s_k=plan0.s_k)
        checks += 1
        if again is not plan0:
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: unchanged-geometry hit is not the original plan",
                checks=checks,
            )
    return CaseResult(
        "providers",
        worst <= TOLERANCE,
        worst,
        worst_detail or "all providers agree",
        checks=checks,
    )


def _check_paged(case: GeometryCase) -> CaseResult:
    """Paged-KV gather vs the contiguous cache oracle.

    Mirrors one request's cache life: chunked appends with a mid-stream
    rollback, a copy-on-write fork off an adopted shared prefix, and a
    heavy-hitter-shaped eviction -- each driven identically into a
    :class:`PagedLayerKVCache` and a contiguous :class:`LayerKVCache`.
    The paged views must be *bitwise* equal (a gather moves bytes, it does
    no arithmetic), and attention computed through them must stay within
    ``TOLERANCE`` of the contiguous result.
    """
    rng = np.random.default_rng(case.seed + 3)
    bt = case.block_size  # reuse the fuzzed tile size as paging granularity
    blocks_needed = -(-case.s_k // bt)
    # Room for the request, a forked sibling, and fork/eviction slack.
    arena = KVArena(
        n_blocks=3 * blocks_needed + 4,
        n_kv_heads=case.h_kv,
        block_tokens=bt,
        d_head=case.d,
    )
    paged = PagedLayerKVCache(arena)
    contig = LayerKVCache(case.h_kv, case.d, capacity=max(case.s_k, 1))

    def feed(target_len: int) -> None:
        while len(contig) < target_len:
            n = int(rng.integers(1, target_len - len(contig) + 1))
            k = rng.standard_normal((case.h_kv, n, case.d), dtype=np.float32)
            v = rng.standard_normal((case.h_kv, n, case.d), dtype=np.float32)
            pos = np.arange(len(contig), len(contig) + n, dtype=np.int64)
            paged.append(k, v, pos)
            contig.append(k, v, pos)

    # Chunked fill with one mid-stream rollback (the retry path).
    mid = max(1, case.s_k // 2)
    feed(mid)
    mark = int(rng.integers(0, mid + 1))
    paged.truncate(mark)
    contig.truncate(mark)
    feed(case.s_k)

    checks = 0
    if not (
        np.array_equal(paged.keys, contig.keys)
        and np.array_equal(paged.values, contig.values)
        and np.array_equal(paged.positions, contig.positions)
    ):
        return CaseResult(
            "paged", False, float("inf"), "gather differs from contiguous"
        )
    checks += 1

    # Attention through the gathered views vs through the private arrays.
    q = rng.standard_normal((case.h, case.s_q, case.d), dtype=np.float32)
    out_paged = flash_attention(q, paged.keys, paged.values)
    out_contig = flash_attention(q, contig.keys, contig.values)
    div = _divergence(out_paged, out_contig)
    if div > TOLERANCE:
        return CaseResult(
            "paged", False, div, "attention through paged views diverges"
        )
    checks += 1

    # Copy-on-write: a sibling adopts the full-block prefix, then writes.
    n_shared = min(len(paged) // bt, paged.n_blocks)
    if n_shared > 0:
        sibling = PagedLayerKVCache(arena)
        sibling.adopt_shared(
            list(paged.block_ids[:n_shared]),
            np.asarray(paged.positions[: n_shared * bt]),
        )
        donor_keys = paged.keys.copy()
        n_tail = int(rng.integers(1, bt + 1))
        k_t = rng.standard_normal((case.h_kv, n_tail, case.d), dtype=np.float32)
        v_t = rng.standard_normal((case.h_kv, n_tail, case.d), dtype=np.float32)
        tail_pos = np.arange(
            n_shared * bt, n_shared * bt + n_tail, dtype=np.int64
        )
        sibling.append(k_t, v_t, tail_pos)
        donor_intact = np.array_equal(paged.keys, donor_keys)
        sibling_prefix_ok = np.array_equal(
            sibling.keys[:, : n_shared * bt], contig.keys[:, : n_shared * bt]
        ) and np.array_equal(sibling.keys[:, n_shared * bt :], k_t)
        sibling.release()
        if not donor_intact:
            return CaseResult(
                "paged",
                False,
                float("inf"),
                "copy-on-write fork mutated the donor's shared block",
            )
        if not sibling_prefix_ok:
            return CaseResult(
                "paged",
                False,
                float("inf"),
                "forked sibling's gather differs from its oracle",
            )
        checks += 1

    # Rectangular eviction must commute with paging.
    if len(contig) > 1:
        keep_n = max(1, len(contig) // 2)
        keep = [
            np.sort(
                rng.choice(len(contig), size=keep_n, replace=False)
            ).astype(np.int64)
            for _ in range(case.h_kv)
        ]
        paged.evict(keep)
        contig.evict(keep)
        if not (
            np.array_equal(paged.keys, contig.keys)
            and np.array_equal(paged.values, contig.values)
        ):
            return CaseResult(
                "paged", False, float("inf"), "post-eviction gather differs"
            )
        checks += 1

    paged.release()
    if arena.blocks_in_use != 0:
        return CaseResult(
            "paged",
            False,
            float("inf"),
            f"arena leak: {arena.blocks_in_use} blocks after release",
        )
    checks += 1
    return CaseResult(
        "paged", True, div, "paged gather matches contiguous", checks=checks
    )


def _packed_batch(case: GeometryCase) -> list[tuple]:
    """The packed batch derived from one fuzzed geometry: the case itself
    plus two deterministic ragged siblings (a half-length prefix and a
    single-row decode-like chunk) sharing ``(H, H_kv, d)``."""
    variants = [case]
    s_k2 = max(1, case.s_k // 2 + 1)
    variants.append(
        dataclasses.replace(
            case,
            seed=case.seed + 4,
            s_q=min(case.s_q, s_k2),
            s_k=s_k2,
            window=min(max(case.window, 1), s_k2),
            min_keep=min(case.min_keep, s_k2),
            dense_last_rows=min(case.dense_last_rows, min(case.s_q, s_k2)),
        )
    )
    variants.append(
        dataclasses.replace(
            case,
            seed=case.seed + 5,
            s_q=1,
            window=min(max(case.window, 1), case.s_k),
            dense_last_rows=min(case.dense_last_rows, 1),
        )
    )
    batch = []
    for var in variants:
        q, k, v = _qkv(var)
        batch.append((var, q, k, v, _merged_block_mask(var, _stripes(var))))
    return batch


def _check_packed(case: GeometryCase) -> CaseResult:
    """Packed cross-request dispatch vs the masked-dense oracle.

    One :func:`packed_block_sparse_attention` call over the ragged batch
    must match each item's masked-dense oracle within ``TOLERANCE`` and
    each item's per-request fast-path visited-tile counts *bitwise* (the
    engine's billing parity rests on the counts, not the float outputs).
    """
    from ..attention.packed import PackedItem, packed_block_sparse_attention

    if case.window == 0:
        try:
            window_block_mask(case.h, case.s_q, case.s_k, case.block_size, 0)
        except MaskError:
            return CaseResult("packed", True, 0.0, "window=0 rejected")
        return CaseResult(
            "packed", False, float("inf"), "window=0 accepted by builder"
        )
    batch = _packed_batch(case)
    items = [
        PackedItem(q=q, k=k, v=v, mask=mask) for _, q, k, v, mask in batch
    ]
    workspace = KernelWorkspace()
    res = packed_block_sparse_attention(items, workspace=workspace)

    worst, worst_detail, checks = 0.0, "", 0
    for (var, q, k, v, mask), got in zip(batch, res.results):
        oracle = dense_attention(q, k, v, mask=mask.to_dense()).output
        div = _divergence(got.output, oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = (
                div,
                f"packed item (s_q={var.s_q}, s_k={var.s_k}) vs masked dense",
            )
        ref = fast_block_sparse_attention(q, k, v, mask, workspace=workspace)
        checks += 1
        if not np.array_equal(got.visited_blocks, ref.visited_blocks):
            return CaseResult(
                "packed",
                False,
                float("inf"),
                f"visited-tile counts diverge from the fast path at "
                f"(s_q={var.s_q}, s_k={var.s_k})",
            )
    return CaseResult(
        "packed",
        worst <= TOLERANCE,
        worst,
        worst_detail or "packed batch agrees",
        checks=checks,
    )


def _check_packed_decode(case: GeometryCase) -> CaseResult:
    """Fused decode batch vs the per-request dense oracle.

    One :func:`packed_decode_attention` call over a ragged batch of
    single-row items (KV lengths ``s_k``, ``s_k//2+1`` and ``1``) must be
    *bitwise* equal to ``dense_attention(q, k, v, causal=False)`` on each
    item alone -- the serving engine's cross-mode token parity rests on
    exact equality here, so unlike the float-tolerance areas any nonzero
    divergence fails.  Probabilities (the H2O mass feed) are held to the
    same bar.
    """
    from ..attention.packed import PackedDecodeItem, packed_decode_attention

    lengths = sorted({case.s_k, case.s_k // 2 + 1, 1})
    rng = np.random.default_rng(case.seed + 6)
    batch = []
    for s_k in lengths:
        q = rng.standard_normal((case.h, 1, case.d), dtype=np.float32)
        k = rng.standard_normal((case.h_kv, s_k, case.d), dtype=np.float32)
        v = rng.standard_normal((case.h_kv, s_k, case.d), dtype=np.float32)
        batch.append((s_k, q, k, v))
    res = packed_decode_attention(
        [PackedDecodeItem(q=q, kv=((k, v),)) for _, q, k, v in batch],
        return_probs=True,
    )
    checks = 0
    for (s_k, q, k, v), got, probs in zip(batch, res.outputs, res.probs):
        oracle = dense_attention(q, k, v, causal=False, return_probs=True)
        checks += 2
        if not np.array_equal(got, oracle.output):
            return CaseResult(
                "packed_decode",
                False,
                _divergence(got, oracle.output),
                f"decode output not bitwise equal to per-request dense "
                f"at s_k={s_k}",
                checks=checks,
            )
        if not np.array_equal(probs, oracle.probs):
            return CaseResult(
                "packed_decode",
                False,
                _divergence(probs, oracle.probs),
                f"decode probs not bitwise equal to per-request dense "
                f"at s_k={s_k}",
                checks=checks,
            )
    expected = np.cumsum([0] + lengths)
    checks += 1
    if not np.array_equal(res.cu_seqlens, expected):
        return CaseResult(
            "packed_decode",
            False,
            float("inf"),
            f"cu_seqlens {res.cu_seqlens.tolist()} != ragged offsets "
            f"{expected.tolist()}",
            checks=checks,
        )
    return CaseResult(
        "packed_decode",
        True,
        0.0,
        "fused decode batch bitwise equal to per-request dense",
        checks=checks,
    )


_CHECKERS = {
    "kernels": _check_kernels,
    "striped": _check_striped,
    "pipeline": _check_pipeline,
    "serving": _check_serving,
    "providers": _check_providers,
    "paged": _check_paged,
    "packed": _check_packed,
    "packed_decode": _check_packed_decode,
}


def run_case(case: GeometryCase, area: str) -> CaseResult:
    """Cross-check one geometry in one area; checker crashes fail too."""
    checker = _CHECKERS.get(area)
    if checker is None:
        raise ConfigError(
            f"unknown audit area {area!r}; expected one of {AUDIT_AREAS}"
        )
    try:
        return checker(case)
    except ReproError as exc:  # an unexpected rejection is a failure
        return CaseResult(
            area, False, float("inf"), f"{type(exc).__name__}: {exc}"
        )


# --------------------------------------------------------------------------
# Shrinking.
# --------------------------------------------------------------------------


def _valid(case: GeometryCase) -> bool:
    return (
        case.h_kv >= 1
        and case.h >= case.h_kv
        and case.h % case.h_kv == 0
        and 1 <= case.s_q <= case.s_k
        and case.d >= 1
        and case.block_size >= 1
        and (case.block_size & (case.block_size - 1)) == 0
        and 0 <= case.window <= case.s_k
        and case.stripe_mode in _STRIPE_MODES
        and case.sink_tokens >= 0
        and case.dense_last_rows >= 0
        and case.min_keep >= 0
    )


def _shrink_candidates(case: GeometryCase) -> list[GeometryCase]:
    """Strictly-smaller neighbours, most aggressive first."""
    out = []

    def add(**changes):
        cand = dataclasses.replace(case, **changes)
        if cand != case and _valid(cand):
            out.append(cand)

    add(h=case.h_kv, h_kv=case.h_kv)  # drop GQA fan-out
    add(h=1, h_kv=1)
    for smaller_k in (max(1, case.s_k // 2), case.s_k - 1):
        if smaller_k >= 1:
            add(
                s_k=smaller_k,
                s_q=min(case.s_q, smaller_k),
                window=min(case.window, smaller_k),
                min_keep=min(case.min_keep, smaller_k),
            )
    add(s_q=max(1, case.s_q // 2))
    if case.s_q > 1:
        add(s_q=case.s_q - 1)
    add(d=max(1, case.d // 2))
    add(block_size=max(8, case.block_size // 2))
    if case.window > 1:
        add(window=1)
    add(stripe_mode="empty")
    add(sink_tokens=0)
    add(dense_last_rows=0)
    add(min_keep=min(case.min_keep, 1))
    add(alpha=0.95)
    add(r_row=0.05)
    return out


def shrink_case(
    case: GeometryCase, area: str, *, max_steps: int = 64
) -> GeometryCase:
    """Greedy shrink: repeatedly accept the first smaller neighbour that
    still fails ``area``'s cross-check, until none does (or the budget
    runs out).  Deterministic given the case."""
    current = case
    for _ in range(max_steps):
        for cand in _shrink_candidates(current):
            if not run_case(cand, area).passed:
                current = cand
                break
        else:
            return current
    return current

"""Engine construction, the measured loop, and end-to-end metrics.

Everything here drives the public serving API: ``ServingEngine.run``,
``EngineResult.memory``, ``MetricsRegistry.counter`` and the
``RequestTelemetry`` fields.  No private engine state is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.model import build_model
from repro.serving import EngineResult, ServingEngine

from workloads import (
    LENGTH_SCALE,
    WORKLOADS,
    PromptBook,
    Round,
    Workload,
    make_round,
)

MODEL_PRESET = "glm-mini"

#: The one serving path the benchmark times.  Every engine the benchmark
#: builds takes its keyword arguments from here.
ENGINE_KWARGS = dict(
    method="sample",
    batching="packed",
    execution="block",
    kernel_mode="fast",
    kv_backend="paged",
    scheduler="round_robin",
    chunk_size=256,
    length_scale=LENGTH_SCALE,
    max_batch_requests=8,
    billing="measured",
    max_queue=64,
)

#: Dense reference for the quality check: same engine, full attention.
#: ``batching="packed"`` requires the sparse method, so it runs per request.
REFERENCE_OVERRIDES = dict(method="flash", batching="request", execution="striped")

#: p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
#: Warm-up requests per set-up (taken from a seed no measured run uses).
WARMUP_REQUESTS = 1
WARMUP_SEED = 2**32 - 1
#: Set-ups per run; ``setup_s`` is their median (plus the one-off imports).
SETUP_REPS = 5
#: Requests the dense reference answers per quality check.
REFERENCE_REQUESTS = 2


def build_engine(book: PromptBook, **overrides) -> ServingEngine:
    return ServingEngine(
        build_model(MODEL_PRESET, seed=0),
        prompt_builder=book,
        **{**ENGINE_KWARGS, **overrides},
    )


def warmup_round(workload: Workload) -> Round:
    """The shortest requests of a round no measured run serves."""
    rnd = make_round(workload, WARMUP_SEED, 0)
    keep = sorted(rnd.requests, key=lambda r: r.prompt_len)[:WARMUP_REQUESTS]
    return Round(keep, rnd.prompts, rnd.answers)


def setup(workload: Workload) -> tuple[ServingEngine, PromptBook, float]:
    """Build model and engine and serve a warm-up round; ``SETUP_REPS``
    times.  Returns the last engine, its prompt book and the median
    seconds of one set-up."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        book = PromptBook()
        engine = build_engine(book)
        rnd = warmup_round(workload)
        book.load(rnd)
        engine.run(rnd.requests)
        times.append(time.perf_counter() - t0)
    return engine, book, float(np.median(times))


@dataclass
class RoundResult:
    round: Round
    result: EngineResult
    wall_s: float


def rounds_for(workload: Workload, seconds: float, min_requests: int) -> int:
    """Rounds that fill ``seconds`` on the recording host, and at least
    ``min_requests`` requests.  A function of the arguments alone, so a
    seed always means the same inputs."""
    need = -(-min_requests // workload.requests_per_round)
    return max(need, int(seconds / workload.round_s), 1)


def serve_rounds(
    engine: ServingEngine,
    book: PromptBook,
    workload: Workload,
    seed: int,
    rounds: int,
    first: int = 0,
) -> list[RoundResult]:
    """Serve rounds ``first .. first+rounds-1`` of ``(workload, seed)``."""
    out: list[RoundResult] = []
    for r in range(first, first + rounds):
        rnd = make_round(workload, seed, r)
        book.load(rnd)
        t0 = time.perf_counter()
        result = engine.run(rnd.requests)
        out.append(RoundResult(rnd, result, time.perf_counter() - t0))
    return out


def ttft_s(tm) -> float:
    return tm.first_token - tm.arrival


def itl_s(tm) -> float | None:
    """Gap between output tokens as the user sees it, including the time
    the request waits while other requests' steps run."""
    if len(tm.generated) < 2:
        return None
    return (tm.finish - tm.first_token) / (len(tm.generated) - 1)


def is_correct_answer(tm, answer: tuple[int, ...]) -> bool:
    return tm.outcome == "completed" and tuple(
        tm.generated[: len(answer)]
    ) == tuple(answer)


FAILED_OUTCOMES = ("rejected", "shed", "deadline_exceeded")


def end_to_end(rounds: list[RoundResult], workload: Workload) -> dict:
    """The end-to-end metrics of one measured run, with sample counts.

    Returns ``name -> (value, unit, samples)``.
    """
    sent = [(tm, rr.round.answers[tm.request_id])
            for rr in rounds for tm in rr.result.requests]
    done = [tm for tm, _ in sent if tm.outcome == "completed"]
    ttfts = [ttft_s(tm) for tm in done]
    itls = [x for x in (itl_s(tm) for tm in done) if x is not None]
    wall = sum(rr.wall_s for rr in rounds)
    tokens = sum(tm.executed_len + len(tm.generated) for tm in done)
    slo_ok = sum(
        1
        for tm in done
        if ttft_s(tm) <= workload.ttft_slo_s
        and (itl_s(tm) or 0.0) <= workload.itl_slo_s
    )
    right = sum(1 for tm, ans in sent if is_correct_answer(tm, ans))
    failed = sum(1 for tm, _ in sent if tm.outcome in FAILED_OUTCOMES)
    peaks = [
        rr.result.memory["arena"]["peak_blocks_in_use"]
        * rr.result.memory["arena"]["bytes_total"]
        / rr.result.memory["arena"]["n_blocks"]
        for rr in rounds
    ]
    n = len(sent)
    return {
        "ttft_p50_s": (_pct(ttfts, 50), "s", len(ttfts)),
        "ttft_p90_s": (_pct(ttfts, 90), "s", len(ttfts)),
        "itl_p50_s": (_pct(itls, 50), "s", len(itls)),
        "itl_p90_s": (_pct(itls, 90), "s", len(itls)),
        "tokens_per_s": (tokens / wall if wall > 0 else 0.0, "1/s", len(done)),
        "slo_attainment": (slo_ok / n, "fraction", n),
        "needle_accuracy": (right / n, "fraction", n),
        "failed_frac": (failed / n, "fraction", n),
        "kv_peak_bytes": (float(max(peaks)), "bytes", len(peaks)),
    }


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def unterminated(rounds: list[RoundResult]) -> int:
    return sum(len(rr.result.telemetry.unterminated()) for rr in rounds)


def reference_check(workload: Workload, seed: int, n: int = REFERENCE_REQUESTS):
    """Serve the first ``n`` requests of round 0 with dense attention and
    return ``(right, n)``: the prompts are solvable iff ``right == n``."""
    rnd = make_round(workload, seed, 0)
    keep = rnd.requests[:n]
    book = PromptBook()
    book.load(rnd)
    res = build_engine(book, **REFERENCE_OVERRIDES).run(keep)
    right = sum(
        1 for tm in res.requests
        if is_correct_answer(tm, rnd.answers[tm.request_id])
    )
    return right, len(keep)


def per_layer(rounds: list[RoundResult], tracer, untraced_wall_s: float,
              engine: ServingEngine) -> dict:
    """Per-layer metrics of a traced pass: ``name -> (value, unit)``.

    Counts come from the engine's public counters and telemetry; seconds
    from the tracer's spans.  ``*.bytes_moved`` are *computed* from tile
    and token counts and tensor sizes, not measured.
    """
    tot = tracer.totals()

    def span(name: str, key: str = "s") -> float:
        return tot.get(name, {}).get(key, 0.0)

    def counter(name: str) -> float:
        return sum(rr.result.telemetry.counter(name) for rr in rounds)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    reqs = [tm for rr in rounds for tm in rr.result.requests]
    cfg = engine.model.config
    waits = [tm.queue_delay for tm in reqs if tm.queue_delay is not None]
    kept = [x for tm in reqs for x in tm.kept_kv_ratios]
    hits, misses = counter("plan_cache_hits"), counter("plan_cache_misses")
    tiles = counter("kernel_packed_tiles_visited")
    kv_tokens = counter("kernel_packed_decode_kv_tokens")
    width = tracer.itemsize * cfg.d_head
    block = engine.config.block_size
    arena = [rr.result.memory["arena"] for rr in rounds]
    out = {
        "engine.prefill_steps": (counter("kernel_packed_prefill_steps"), "count"),
        "engine.decode_steps": (counter("kernel_packed_decode_steps"), "count"),
        "engine.prefill_batch_mean": (
            ratio(counter("kernel_packed_requests"),
                  counter("kernel_packed_dispatches")), "requests"),
        "engine.decode_batch_mean": (
            ratio(counter("kernel_packed_decode_requests"),
                  counter("kernel_packed_decode_dispatches")), "requests"),
        "engine.queue_wait_p50_s": (_pct(waits, 50), "s"),
        "engine.self_s": (span("engine.run", "self_s"), "s"),
        "engine.rejected": (counter("rejected"), "count"),
        "engine.shed": (counter("shed"), "count"),
        "engine.breaker_dense_chunks": (counter("breaker_dense_chunks"), "count"),
        "planner.calls": (float(tot.get("planner.plan", {}).get("calls", 0)), "count"),
        "planner.s": (span("planner.plan") + span("planner.to_block_mask"), "s"),
        "planner.kept_kv_ratio": (float(np.mean(kept)) if kept else 0.0, "fraction"),
        "planner.cra_violations": (counter("cra_guard_violations"), "count"),
        "plan_cache.hits": (hits, "count"),
        "plan_cache.misses": (misses, "count"),
        "plan_cache.hit_ratio": (ratio(hits, hits + misses), "fraction"),
        "kernel.prefill.calls": (float(tot.get("kernel.prefill", {}).get("calls", 0)), "count"),
        "kernel.prefill.s": (span("kernel.prefill"), "s"),
        "kernel.prefill.tiles_visited": (tiles, "count"),
        "kernel.prefill.tile_density": (ratio(tiles, tracer.causal_tiles), "fraction"),
        "kernel.prefill.s_per_tile": (ratio(span("kernel.prefill"), tiles), "s/tile"),
        "kernel.prefill.bytes_moved": (
            width * (2.0 * cfg.n_heads * counter("kernel_packed_rows")
                     + 2.0 * block * tiles), "bytes"),
        "kernel.decode.calls": (float(tot.get("kernel.decode", {}).get("calls", 0)), "count"),
        "kernel.decode.s": (span("kernel.decode"), "s"),
        "kernel.decode.kv_tokens": (kv_tokens, "count"),
        "kernel.decode.s_per_kv_token": (ratio(span("kernel.decode"), kv_tokens), "s/token"),
        "kernel.decode.bytes_moved": (
            width * (2.0 * cfg.n_heads * counter("kernel_packed_decode_requests")
                     + 2.0 * cfg.n_kv_heads * kv_tokens), "bytes"),
        "kernel.dense.calls": (float(tot.get("kernel.dense", {}).get("calls", 0)), "count"),
        "kernel.dense.s": (span("kernel.dense"), "s"),
        "model.prefill.s": (span("model.prefill"), "s"),
        "model.decode.s": (span("model.decode"), "s"),
        "model.self_s": (
            span("model.prefill", "self_s") + span("model.decode", "self_s"), "s"),
        "memory.prefix_hits": (counter("prefix_cache_hits"), "count"),
        "memory.prefix_token_share": (
            ratio(sum(tm.shared_tokens for tm in reqs),
                  sum(tm.executed_len for tm in reqs)), "fraction"),
        "memory.arena_peak_util": (
            max(a["peak_blocks_in_use"] / a["n_blocks"] for a in arena), "fraction"),
        "memory.gather.s": (span("memory.gather"), "s"),
        "memory.append.s": (span("memory.append"), "s"),
        "memory.evictions": (counter("kv_evictions"), "count"),
        "trace.overhead_frac": (
            ratio(tracer.wall_s(), untraced_wall_s) - 1.0, "fraction"),
    }
    return {k: (float(v), u) for k, (v, u) in out.items()}

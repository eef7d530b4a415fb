"""Benchmark-side span tracer over the serving stack's public functions.

:class:`Tracer` patches the functions each layer exposes -- the engine's
``run``, the plan provider, the packed and dense kernels at their
engine call sites, the transformer's batched steps and the paged-KV
gather and append -- with wrappers that record a span (name, start, end,
parent) around every call.  Spans stay in memory; :meth:`Tracer.write`
dumps them when the run ends.  ``with Tracer() as t:`` installs the
wrappers and restores every original on exit.

Self time of a span is its duration minus its children's durations, so
the self times of all spans sum to the root spans' (``engine.run``)
total -- the traced wall.  Only the thread that installed the tracer
records spans; calls from kernel worker threads pass straight through.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

import repro.serving.engine as engine_mod
from repro.core.plan import SparsePlan
from repro.core.providers import SampleAttentionProvider
from repro.memory import BatchedKVGather, PagedLayerKVCache
from repro.model.transformer import Transformer
from repro.serving import ServingEngine


def causal_tiles(s_q: int, s_k: int, block: int) -> int:
    """Tiles a dense causal kernel visits for ``s_q`` right-aligned query
    rows against ``s_k`` keys, per head."""
    offset = s_k - s_q
    n_k = -(-s_k // block)
    return sum(
        min(n_k, (min((qi + 1) * block, s_q) - 1 + offset) // block + 1)
        for qi in range(-(-s_q // block))
    )


def _prefill_geometry(tracer: "Tracer", args, kwargs) -> None:
    items = args[0] if args else kwargs["items"]
    for it in items:
        tracer.causal_tiles += it.q.shape[0] * causal_tiles(
            it.q.shape[1], it.k.shape[1], it.mask.block_size
        )
        tracer.itemsize = it.q.itemsize


#: ``(span name, owner, attribute, post-call hook)``.  Module-level
#: functions are patched where the engine looks them up.  The planner is
#: the engine's default provider, the only one the benchmark runs.
TARGETS = (
    ("engine.run", ServingEngine, "run", None),
    ("planner.plan", SampleAttentionProvider, "plan", None),
    ("planner.to_block_mask", SparsePlan, "to_block_mask", None),
    ("kernel.prefill", engine_mod, "packed_block_sparse_attention",
     _prefill_geometry),
    ("kernel.decode", engine_mod, "packed_decode_attention", None),
    ("kernel.dense", engine_mod, "flash_attention", None),
    ("model.prefill", Transformer, "prefill_chunk_batch", None),
    ("model.decode", Transformer, "decode_batch", None),
    ("memory.gather", BatchedKVGather, "__call__", None),
    ("memory.append", PagedLayerKVCache, "append", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.causal_tiles = 0
        self.itemsize = 4
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._thread: int | None = None

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        self._thread = threading.get_ident()
        for name, owner, attr, hook in TARGETS:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    hook(tracer, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ queries
    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, dict] = {}
        for sp, c in zip(self.spans, child):
            row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += sp.end - sp.start
            row["self_s"] += sp.end - sp.start - c
        return out

    def wall_s(self) -> float:
        return sum(sp.end - sp.start for sp in self.spans if sp.parent < 0)

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {
                        "name": sp.name,
                        "start_s": sp.start - t0,
                        "end_s": sp.end - t0,
                        "parent": sp.parent,
                    }
                    for sp in self.spans
                ],
                fh,
            )

"""Batched block-table reads for fused decode over paged KV caches.

A fused decode step needs every batched request's KV for one layer at
once.  :class:`BatchedKVGather` hands each cache's live KV over as its
run views (:meth:`~repro.memory.PagedLayerKVCache.kv_runs`): zero-copy
arena views, one per maximal run of consecutive block ids, which the
decode kernel attends over in place.  No token is copied, however
fragmented the block tables are.
"""

from __future__ import annotations

__all__ = ["BatchedKVGather"]


class BatchedKVGather:
    """Run-view gather hook for :meth:`Transformer.decode_batch`.

    Call signature matches the ``gather`` parameter of ``decode_batch``:
    ``(layer_index, pairs) -> {entry_index: runs}`` where ``pairs`` is a
    list of ``(entry_index, cache)`` and ``runs`` is the cache's
    ``kv_runs()`` -- a tuple of ``(keys, values)`` views whose
    concatenation along the token axis is the cache's KV.  Contiguous
    (non-paged) caches yield one run.  The engine keeps one instance per
    run and reads its counters into ``EngineResult.memory``.
    """

    def __init__(self) -> None:
        #: Total calls.
        self.dispatches = 0
        #: Cache reads served (one per (entry, call)).
        self.reads = 0
        #: Run views handed out; ``runs / reads`` is the mean
        #: fragmentation of the block tables decode attends over.
        self.runs = 0
        #: Tokens served, all zero-copy.
        self.viewed_tokens = 0

    def __call__(self, layer_index: int, pairs: list) -> dict:
        self.dispatches += 1
        out: dict = {}
        for b, cache in pairs:
            runs = cache.kv_runs()
            out[b] = runs
            self.reads += 1
            self.runs += len(runs)
            self.viewed_tokens += len(cache)
        return out

    def stats(self) -> dict:
        """Telemetry snapshot (JSON-friendly)."""
        return {
            "dispatches": self.dispatches,
            "reads": self.reads,
            "runs": self.runs,
            "viewed_tokens": self.viewed_tokens,
        }

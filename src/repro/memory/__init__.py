"""Paged KV memory subsystem (vLLM-style, on the numpy substrate).

Decode-phase serving capacity is bounded by KV bytes per session, not
FLOPs; this package turns the engine's per-request contiguous caches into
block tables over one global :class:`KVArena`:

* :class:`KVArena` -- fixed-size KV blocks, O(1) free-list alloc/free,
  refcounts, zero-copy views over contiguous block runs.
* :class:`PagedLayerKVCache` -- drop-in ``LayerKVCache`` replacement
  holding a block table; copy-on-write forking, atomic appends,
  zero-copy run views that decode attends over in place, and a gathered
  contiguous read for prefill.
* :class:`BatchedKVGather` -- the fused-decode read hook: hands every
  batched cache's run views to the decode kernel and counts them.
* :class:`PrefixSharingRegistry` -- chain-hashed token prefixes map to
  physical blocks so repeated system prompts share storage.
* :class:`EvictionPolicy` implementations (:class:`HeavyHitterPolicy`,
  :class:`LRUBlockPolicy`) -- live cache shrinking under pressure.
* :class:`MemoryPressureController` -- the ``evict -> quantize -> shed``
  degradation rung the serving engine walks on
  :class:`~repro.errors.ArenaExhaustedError`.
"""

from .arena import KVArena
from .eviction import (
    EVICTION_POLICIES,
    EvictionPolicy,
    HeavyHitterPolicy,
    LRUBlockPolicy,
    make_eviction_policy,
)
from .gather import BatchedKVGather
from .paged_cache import PagedLayerKVCache
from .pressure import MEMORY_PRESSURE_LEVELS, MemoryPressureController
from .sharing import PrefixSharingRegistry, prefix_block_keys

__all__ = [
    "BatchedKVGather",
    "EVICTION_POLICIES",
    "EvictionPolicy",
    "HeavyHitterPolicy",
    "KVArena",
    "LRUBlockPolicy",
    "MEMORY_PRESSURE_LEVELS",
    "MemoryPressureController",
    "PagedLayerKVCache",
    "PrefixSharingRegistry",
    "make_eviction_policy",
    "prefix_block_keys",
]

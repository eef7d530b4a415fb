"""Global paged KV arena: fixed-size blocks, a free list, refcounts.

The arena owns all physical KV storage of a serving run as two arrays of
shape ``(H_kv, n_blocks, block_tokens, d_head)`` (keys and values).  A
*block* is ``block_tokens`` consecutive token positions across every KV
head; per-request :class:`~repro.memory.PagedLayerKVCache` objects hold
*block tables* -- lists of block ids -- instead of private arrays, so the
total KV footprint of the engine is bounded by ``n_blocks`` regardless of
how many sessions are resident.

Design points (vLLM's PagedAttention allocator, scaled to the numpy
substrate):

* **O(1) alloc/free** -- a LIFO free list of block ids; allocation pops,
  release pushes.  :class:`~repro.errors.ArenaExhaustedError` is raised
  when the list is empty, which is the signal the serving engine's
  memory-pressure ladder reacts to.
* **Refcounted copy-on-write sharing** -- a block referenced by more than
  one table is read-only; writers fork it first
  (:meth:`PagedLayerKVCache._fork`).  Refcounts live here so prefix
  sharing, live caches, and the sharing registry all account against one
  ledger.
* **Zero-copy contiguous views** -- the ``(H_kv, n_blocks, bt, d)``
  layout makes any *contiguous ascending run* of block ids expressible as
  a strided view ``arr[:, b0:b1].reshape(H, run*bt, d)`` without copying,
  so a fragmented table reads as a few such views (:meth:`KVArena.runs`);
  decode attends over them in place.
* **Reservations** -- :meth:`reserve` withdraws blocks from the free list
  without handing them to any table; the fault injector uses this to
  simulate arena-exhaustion bursts deterministically.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArenaExhaustedError, ConfigError

__all__ = ["KVArena"]


class KVArena:
    """Fixed-capacity pool of KV blocks shared by every layer and request.

    Blocks are layer-agnostic: each block simply stores ``block_tokens``
    worth of ``(H_kv, d_head)`` keys and values, and a per-layer cache uses
    whichever blocks its table names.  One arena therefore serves all
    layers of all resident requests, which is what makes its utilization
    the single "memory pressure" signal of the engine.

    Parameters
    ----------
    n_blocks:
        Total blocks in the pool (the hard KV budget).
    n_kv_heads, d_head:
        KV geometry of the model the arena serves.
    block_tokens:
        Tokens per block (the paging granularity).
    """

    def __init__(
        self,
        n_blocks: int,
        n_kv_heads: int,
        block_tokens: int,
        d_head: int,
    ) -> None:
        if n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {n_blocks}")
        if n_kv_heads < 1 or d_head < 1:
            raise ConfigError("invalid KV head geometry")
        if block_tokens < 1:
            raise ConfigError(
                f"block_tokens must be >= 1, got {block_tokens}"
            )
        self.n_blocks = n_blocks
        self.n_kv_heads = n_kv_heads
        self.block_tokens = block_tokens
        self.d_head = d_head
        self._k = np.zeros(
            (n_kv_heads, n_blocks, block_tokens, d_head), dtype=np.float32
        )
        self._v = np.zeros_like(self._k)
        self._ref = np.zeros(n_blocks, dtype=np.int32)
        # LIFO free list; initialised so the first allocations come out in
        # ascending id order (contiguous runs -> zero-copy views).
        self._free: list[int] = list(range(n_blocks - 1, -1, -1))
        self._reserved: list[int] = []
        # Monotone counters for telemetry.
        self.allocs = 0
        self.frees = 0
        self.forks = 0
        self.peak_blocks_in_use = 0

    # ----------------------------------------------------------- accounting
    @property
    def blocks_free(self) -> int:
        return len(self._free)

    @property
    def blocks_in_use(self) -> int:
        """Blocks not on the free list (allocated or reserved)."""
        return self.n_blocks - len(self._free)

    @property
    def blocks_reserved(self) -> int:
        return len(self._reserved)

    @property
    def utilization(self) -> float:
        """Fraction of the pool not on the free list, in ``[0, 1]``."""
        return self.blocks_in_use / self.n_blocks

    @property
    def bytes_per_block(self) -> int:
        return 2 * self.n_kv_heads * self.block_tokens * self.d_head * 4

    @property
    def bytes_total(self) -> int:
        return self.n_blocks * self.bytes_per_block

    @property
    def bytes_in_use(self) -> int:
        return self.blocks_in_use * self.bytes_per_block

    def refcount(self, block_id: int) -> int:
        return int(self._ref[block_id])

    @property
    def shared_blocks(self) -> int:
        """Blocks referenced by more than one table (CoW candidates)."""
        return int(np.count_nonzero(self._ref > 1))

    # ------------------------------------------------------------ lifecycle
    def alloc(self) -> int:
        """Pop a free block (refcount 1).  O(1).

        Raises
        ------
        ArenaExhaustedError
            When the free list is empty -- the caller (the serving engine)
            owns recovery via its memory-pressure ladder.
        """
        if not self._free:
            raise ArenaExhaustedError(
                f"KV arena exhausted: {self.n_blocks} blocks all in use "
                f"({len(self._reserved)} reserved)"
            )
        bid = self._free.pop()
        self._ref[bid] = 1
        self.allocs += 1
        self.peak_blocks_in_use = max(
            self.peak_blocks_in_use, self.blocks_in_use
        )
        return bid

    def incref(self, block_id: int) -> None:
        """Adopt a live block into another table (prefix sharing)."""
        if self._ref[block_id] < 1:
            raise ConfigError(
                f"incref on free block {block_id} (use-after-free)"
            )
        self._ref[block_id] += 1

    def decref(self, block_id: int) -> None:
        """Drop one reference; the last reference frees the block. O(1)."""
        if self._ref[block_id] < 1:
            raise ConfigError(
                f"decref on free block {block_id} (double free)"
            )
        self._ref[block_id] -= 1
        if self._ref[block_id] == 0:
            self._free.append(block_id)
            self.frees += 1

    def reserve(self, n: int) -> int:
        """Withdraw up to ``n`` blocks from the free list without giving
        them to any table (the arena-exhaustion fault's mechanism).
        Returns the number actually reserved."""
        if n < 0:
            raise ConfigError(f"reserve: n must be >= 0, got {n}")
        taken = 0
        while taken < n and self._free:
            bid = self._free.pop()
            self._ref[bid] = 1
            self._reserved.append(bid)
            taken += 1
        if taken:
            self.peak_blocks_in_use = max(
                self.peak_blocks_in_use, self.blocks_in_use
            )
        return taken

    def release_reserved(self) -> int:
        """Return every reserved block to the free list."""
        n = len(self._reserved)
        for bid in self._reserved:
            self._ref[bid] = 0
            self._free.append(bid)
        self._reserved.clear()
        return n

    # ----------------------------------------------------------------- views
    def runs(
        self, block_ids: list[int], length: int
    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Zero-copy ``(keys, values)`` views over the first ``length``
        tokens of ``block_ids``, one ``(H_kv, n, d)`` pair per maximal run
        of consecutive ascending block ids.

        Concatenated along the token axis the runs are exactly the
        table's live KV.  An empty table yields one empty run.
        """
        h, d, bt = self.n_kv_heads, self.d_head, self.block_tokens
        if not block_ids:
            empty = self._k[:, :0].reshape(h, 0, d)
            return ((empty, empty),)
        out = []
        left = length
        start = 0
        for i in range(1, len(block_ids) + 1):
            if i < len(block_ids) and block_ids[i] == block_ids[i - 1] + 1:
                continue
            b0, b1 = block_ids[start], block_ids[i - 1] + 1
            n = min((b1 - b0) * bt, left)
            k = self._k[:, b0:b1].reshape(h, (b1 - b0) * bt, d)
            v = self._v[:, b0:b1].reshape(h, (b1 - b0) * bt, d)
            out.append((k[:, :n], v[:, :n]))
            left -= n
            start = i
            if left <= 0:
                break
        return tuple(out)

    def view(
        self, block_ids: list[int], length: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(keys, values)`` of shape ``(H_kv, length, d)`` over
        ``block_ids`` *without copying*, or ``None`` when the ids are not a
        contiguous ascending run (see :meth:`runs` for fragmented tables).

        ``length`` trims the partially-filled tail block.
        """
        runs = self.runs(block_ids, length)
        return runs[0] if len(runs) == 1 else None

    def gather(
        self,
        block_ids: list[int],
        length: int,
        out_k: np.ndarray,
        out_v: np.ndarray,
    ) -> None:
        """Copy ``length`` tokens of ``block_ids`` into caller scratch
        ``(H_kv, length, d)``, one slice assignment per run."""
        t = 0
        for k, v in self.runs(block_ids, length):
            n = k.shape[1]
            out_k[:, t : t + n] = k
            out_v[:, t : t + n] = v
            t += n

    # ------------------------------------------------------------- reporting
    def stats(self) -> dict:
        """Telemetry snapshot (JSON-friendly)."""
        return {
            "n_blocks": self.n_blocks,
            "block_tokens": self.block_tokens,
            "blocks_in_use": self.blocks_in_use,
            "blocks_free": self.blocks_free,
            "blocks_reserved": self.blocks_reserved,
            "shared_blocks": self.shared_blocks,
            "utilization": round(self.utilization, 4),
            "peak_blocks_in_use": self.peak_blocks_in_use,
            "bytes_total": self.bytes_total,
            "bytes_in_use": self.bytes_in_use,
            "allocs": self.allocs,
            "frees": self.frees,
            "forks": self.forks,
        }

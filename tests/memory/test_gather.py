"""Tests for the run-view gather (fused decode reads paged KV in place).

Contract: a cache's run views, concatenated along the token axis, equal
its ``.keys``/``.values`` bitwise; every run is a view of the arena (no
token is copied); a contiguous table is one run.
"""

import numpy as np

from repro.memory import BatchedKVGather, KVArena, PagedLayerKVCache
from repro.model.kv_cache import LayerKVCache

H, D, BT = 2, 8, 4


def fill(cache, n, *, start=0, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((H, n, D)).astype(np.float32)
    v = rng.standard_normal((H, n, D)).astype(np.float32)
    cache.append(k, v, np.arange(start, start + n, dtype=np.int64))


def interleaved_pair(arena):
    """Two paged caches whose blocks interleave: both fragmented."""
    a, b = PagedLayerKVCache(arena), PagedLayerKVCache(arena)
    fill(a, BT, seed=1)           # block 0
    fill(b, BT, seed=2)           # block 1
    fill(a, BT, start=BT, seed=3)  # block 2 -> a holds [0, 2]
    fill(b, BT, start=BT, seed=4)  # block 3 -> b holds [1, 3]
    return a, b


def assert_runs_match(runs, cache):
    """Concatenated runs equal the cache's contiguous read bitwise."""
    np.testing.assert_array_equal(
        np.concatenate([k for k, _ in runs], axis=1), cache.keys
    )
    np.testing.assert_array_equal(
        np.concatenate([v for _, v in runs], axis=1), cache.values
    )


def assert_zero_copy(runs, arena):
    for k, v in runs:
        assert np.shares_memory(k, arena._k)
        assert np.shares_memory(v, arena._v)


class TestFastPaths:
    def test_contiguous_cache_passes_through(self):
        cache = LayerKVCache(H, D)
        fill(cache, 6)
        g = BatchedKVGather()
        runs = g(0, [(0, cache)])[0]
        assert len(runs) == 1
        assert_runs_match(runs, cache)
        assert np.shares_memory(runs[0][0], cache.keys)
        assert g.reads == 1 and g.runs == 1 and g.viewed_tokens == 6

    def test_unfragmented_paged_cache_is_zero_copy(self):
        arena = KVArena(8, H, BT, D)
        cache = PagedLayerKVCache(arena)
        fill(cache, 2 * BT + 1)
        g = BatchedKVGather()
        runs = g(0, [(0, cache)])[0]
        assert len(runs) == 1  # a contiguous table is one run
        assert runs[0][0].shape == (H, 2 * BT + 1, D)
        assert_runs_match(runs, cache)
        assert_zero_copy(runs, arena)
        assert g.viewed_tokens == 2 * BT + 1


class TestFragmentedRuns:
    def test_fragmented_caches_match_cache_views_bitwise(self):
        arena = KVArena(8, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        out = g(0, [(0, a), (1, b)])
        for entry, cache in ((0, a), (1, b)):
            assert len(out[entry]) == 2  # one run per block here
            assert_runs_match(out[entry], cache)
            assert_zero_copy(out[entry], arena)
        assert g.runs == 4 and g.viewed_tokens == 4 * BT

    def test_runs_cached_until_block_table_changes(self):
        arena = KVArena(16, H, BT, D)
        a, b = interleaved_pair(arena)
        first = a.kv_runs()
        assert a.kv_runs() is first  # cached: block table unchanged
        fill(a, 1, start=2 * BT, seed=5)  # new block -> table changed
        grown = a.kv_runs()
        assert grown is not first
        assert_runs_match(grown, a)
        fill(a, 1, start=2 * BT + 1, seed=6)  # same tail block
        assert_runs_match(a.kv_runs(), a)
        a.truncate(BT + 1)  # drops the tail block
        assert_runs_match(a.kv_runs(), a)
        assert_zero_copy(a.kv_runs(), arena)

    def test_runs_refresh_when_cache_grows(self):
        arena = KVArena(16, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        before = g(0, [(0, a)])[0]
        fill(a, 3 * BT, start=2 * BT, seed=5)
        out = g(1, [(0, a), (1, b)])
        assert sum(k.shape[1] for k, _ in out[0]) > sum(
            k.shape[1] for k, _ in before
        )
        assert_runs_match(out[0], a)
        assert_runs_match(out[1], b)
        assert_runs_match(g(2, [(0, a)])[0], a)

    def test_runs_follow_fork_and_eviction(self):
        arena = KVArena(16, H, BT, D)
        donor = PagedLayerKVCache(arena)
        fill(donor, 2 * BT, seed=7)
        reader = PagedLayerKVCache(arena)
        reader.adopt_shared(list(donor.block_ids), donor.positions.copy())
        reader.truncate(2 * BT - 1)  # rewrite the shared tail: forks
        fill(reader, 3, start=2 * BT - 1, seed=8)
        assert arena.forks == 1
        assert_runs_match(reader.kv_runs(), reader)
        assert_runs_match(donor.kv_runs(), donor)
        keep = [np.arange(0, 2 * BT + 2, 2) for _ in range(H)]
        reader.evict(keep)
        assert_runs_match(reader.kv_runs(), reader)
        assert_zero_copy(reader.kv_runs(), arena)

    def test_mixed_batch_routes_each_cache_correctly(self):
        arena = KVArena(8, H, BT, D)
        frag_a, frag_b = interleaved_pair(arena)
        clean = PagedLayerKVCache(arena)
        fill(clean, BT, seed=6)
        contig = LayerKVCache(H, D)
        fill(contig, 5, seed=7)
        g = BatchedKVGather()
        out = g(0, [(0, frag_a), (1, clean), (2, contig), (3, frag_b)])
        assert set(out) == {0, 1, 2, 3}
        for entry, cache in ((0, frag_a), (1, clean), (2, contig),
                             (3, frag_b)):
            assert_runs_match(out[entry], cache)
        for entry in (0, 1, 3):
            assert_zero_copy(out[entry], arena)
        assert [len(out[e]) for e in range(4)] == [2, 1, 1, 2]


class TestStats:
    def test_stats_snapshot_keys_and_counts(self):
        arena = KVArena(8, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        g(0, [(0, a), (1, b)])
        g(1, [(0, a)])
        assert g.stats() == {
            "dispatches": 2,
            "reads": 3,
            "runs": 6,
            "viewed_tokens": 6 * BT,
        }

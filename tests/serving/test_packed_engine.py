"""Packed cross-request batching in the serving engine.

The packed path must be an execution strategy, not a semantics change:
same generated tokens, same admission/completion counters, and one fused
kernel dispatch per (layer, batch step).  Runs use ``billing="roofline"``
so timing-derived behaviour is deterministic.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving import BATCHING_MODES, Request, ServingEngine


def burst(n=4, prompt_len=16384, decode_tokens=2):
    return [
        Request(request_id=i, arrival=0.0, prompt_len=prompt_len,
                decode_tokens=decode_tokens)
        for i in range(n)
    ]


def make_engine(model, **kw):
    kw.setdefault("method", "sample")
    kw.setdefault("execution", "block")
    kw.setdefault("billing", "roofline")
    kw.setdefault("length_scale", 64)  # 16384 -> 256 executed tokens
    kw.setdefault("chunk_size", 64)
    kw.setdefault("scheduler", "round_robin")
    kw.setdefault("seed", 0)
    return ServingEngine(model, **kw)


def _non_kernel_counters(result):
    return {
        k: v
        for k, v in result.telemetry._counters.items()
        if not k.startswith("kernel_")
    }


class TestPackedConfig:
    def test_modes_registered(self):
        assert BATCHING_MODES == ("request", "packed")

    def test_rejects_bad_batching(self, glm_mini):
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="fused")

    def test_packed_requires_sample_block(self, glm_mini):
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="packed", method="dense")
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="packed", execution="striped")

    def test_rejects_bad_max_batch(self, glm_mini):
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="packed", max_batch_requests=0)


class TestPackedParity:
    def test_matches_per_request_engine(self, glm_mini):
        reqs = burst(n=4)
        base = make_engine(glm_mini, batching="request").run(reqs)
        packed = make_engine(glm_mini, batching="packed").run(reqs)

        assert len(packed.completed) == len(base.completed) == 4
        for a, b in zip(base.requests, packed.requests):
            assert a.request_id == b.request_id
            assert a.outcome == b.outcome
            assert list(a.generated) == list(b.generated)
        assert _non_kernel_counters(packed) == _non_kernel_counters(base)

    def test_one_dispatch_per_layer_step(self, glm_mini):
        engine = make_engine(glm_mini, batching="packed")
        result = engine.run(burst(n=4))
        counters = result.telemetry._counters
        dispatches = counters["kernel_packed_dispatches"]
        steps = counters["kernel_packed_prefill_steps"]
        n_layers = glm_mini.config.n_layers
        assert steps > 0
        assert dispatches == n_layers * steps
        # With 4 simultaneous arrivals the batch actually fills.
        assert counters["kernel_packed_requests"] > dispatches

    def test_max_batch_one_still_packs(self, glm_mini):
        engine = make_engine(glm_mini, batching="packed", max_batch_requests=1)
        result = engine.run(burst(n=2))
        counters = result.telemetry._counters
        assert len(result.completed) == 2
        assert (
            counters["kernel_packed_dispatches"]
            == glm_mini.config.n_layers * counters["kernel_packed_prefill_steps"]
        )


class TestPackedDecode:
    """The fused decode path: one ragged dispatch per (layer, step)."""

    def test_decode_dispatch_identity(self, glm_mini):
        result = make_engine(glm_mini, batching="packed").run(
            burst(n=4, decode_tokens=8)
        )
        counters = result.telemetry._counters
        steps = counters["kernel_packed_decode_steps"]
        dispatches = counters["kernel_packed_decode_dispatches"]
        assert steps > 0
        assert dispatches == glm_mini.config.n_layers * steps
        # Four simultaneous arrivals decode in lockstep: each dispatch
        # carries more than one request.
        assert counters["kernel_packed_decode_requests"] > dispatches

    def test_long_decode_matches_per_request_engine(self, glm_mini):
        reqs = burst(n=4, decode_tokens=8)
        base = make_engine(glm_mini, batching="request").run(reqs)
        packed = make_engine(glm_mini, batching="packed").run(reqs)
        assert len(packed.completed) == len(base.completed) == 4
        for a, b in zip(base.requests, packed.requests):
            assert list(a.generated) == list(b.generated)
        assert _non_kernel_counters(packed) == _non_kernel_counters(base)

    def test_paged_backend_decode_parity_and_gather(self, glm_mini):
        reqs = burst(n=3, decode_tokens=6)
        base = make_engine(
            glm_mini, batching="request", kv_backend="paged"
        ).run(reqs)
        packed = make_engine(
            glm_mini, batching="packed", kv_backend="paged"
        ).run(reqs)
        for a, b in zip(base.requests, packed.requests):
            assert list(a.generated) == list(b.generated)
        gather = packed.memory["decode_gather"]
        assert gather["dispatches"] > 0
        # Every batched KV read was served as zero-copy run views.
        assert gather["viewed_tokens"] > 0
        assert gather["runs"] >= gather["reads"] > 0

    def test_fcfs_scheduler_also_batches_decode(self, glm_mini):
        result = make_engine(
            glm_mini, batching="packed", scheduler="fcfs"
        ).run(burst(n=3, decode_tokens=4))
        counters = result.telemetry._counters
        assert len(result.completed) == 3
        assert (
            counters["kernel_packed_decode_dispatches"]
            == glm_mini.config.n_layers
            * counters["kernel_packed_decode_steps"]
        )


class TestChunkKnorm:
    def _keys(self, rng, s_k):
        return rng.standard_normal((2, s_k, 8), dtype=np.float32)

    def _full(self, keys):
        return float(np.einsum("hsd,hsd->hs", keys, keys).max())

    def test_incremental_equals_full(self, glm_mini, rng):
        engine = make_engine(glm_mini, batching="packed")
        keys = self._keys(rng, 96)
        # Stored value covers the 64-row prefix; the chunk appended 32.
        prefix = keys[:, :64, :]
        job = SimpleNamespace(knorm_sq=[(64, self._full(prefix))])
        covered, val = engine._chunk_knorm(job, 0, keys, 32)
        assert covered == 96
        assert val == self._full(keys)

    def test_stale_tracker_falls_back_to_full(self, glm_mini, rng):
        engine = make_engine(glm_mini, batching="packed")
        keys = self._keys(rng, 96)
        job = SimpleNamespace(knorm_sq=[(40, 123.0)])  # wrong prefix length
        covered, val = engine._chunk_knorm(job, 0, keys, 32)
        assert covered == 96
        assert val == self._full(keys)

    def test_empty_keys(self, glm_mini, rng):
        engine = make_engine(glm_mini, batching="packed")
        job = SimpleNamespace(knorm_sq=None)
        assert engine._chunk_knorm(job, 0, self._keys(rng, 0), 0) == (0, 0.0)

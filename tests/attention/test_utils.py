"""Tests for the attention numerics helpers."""

import numpy as np
import pytest

from repro.attention.utils import (
    EXP_CLAMP,
    NEG_INF,
    causal_mask,
    expand_kv,
    masked_row_softmax,
    softmax,
    validate_qkv,
)
from repro.errors import ShapeError


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 7)).astype(np.float32)
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-6)

    def test_matches_naive(self, rng):
        x = rng.standard_normal(9)
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(softmax(x), expected, rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(16)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-5)

    def test_large_values_stable(self):
        x = np.array([1e4, 1e4 - 1.0], dtype=np.float32)
        s = softmax(x)
        assert np.all(np.isfinite(s))
        assert s[0] > s[1]

    def test_fully_masked_row_is_zero(self):
        x = np.full((2, 4), NEG_INF, dtype=np.float32)
        x[1, 0] = 0.0
        s = softmax(x)
        np.testing.assert_array_equal(s[0], 0.0)
        assert s[1, 0] == pytest.approx(1.0)

    def test_axis_argument(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0, rtol=1e-6)


class TestSubnormalFreeSoftmax:
    """Shifted scores at or below EXP_CLAMP flush to exact zero, so no
    probability is subnormal and the decode PV GEMM never sees one."""

    TINY = np.finfo(np.float32).tiny

    def wide_rows(self, rng):
        # Rows spanning ~300 logits: raw exp would produce subnormals.
        return (rng.standard_normal((64, 512)) * 40.0).astype(np.float32)

    def test_no_output_is_subnormal(self, rng):
        p = softmax(self.wide_rows(rng))
        assert not np.any((p > 0) & (p < self.TINY))
        assert np.any(p == 0.0)  # the wide rows did reach the clamp

    def test_entries_at_or_below_clamp_are_exact_zero(self):
        clamp = float(EXP_CLAMP)
        x = np.array(
            [[0.0, clamp, clamp - 1.0, clamp + 0.5, -1e4]], dtype=np.float32
        )
        p = softmax(x + np.float32(7.0))  # shift: the max is not zero
        assert p[0, 1] == 0.0 and p[0, 2] == 0.0 and p[0, 4] == 0.0
        assert p[0, 3] > 0.0

    def test_fully_masked_rows_stay_zero(self):
        x = np.full((3, 5), NEG_INF, dtype=np.float32)
        x[1] = -np.inf
        x[2, 2] = 1.0
        p = softmax(x)
        np.testing.assert_array_equal(p[:2], 0.0)
        np.testing.assert_array_equal(p[2], np.eye(5, dtype=np.float32)[2])

    def test_within_1e6_of_float64_reference(self, rng):
        x = self.wide_rows(rng)
        x64 = x.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
        ref = e / e.sum(axis=-1, keepdims=True)
        assert float(np.abs(softmax(x) - ref).max()) <= 1e-6


class TestCausalMask:
    def test_square_lower_triangular(self):
        m = causal_mask(4, 4)
        np.testing.assert_array_equal(m, np.tril(np.ones((4, 4), bool)))

    def test_right_aligned_decode(self):
        m = causal_mask(1, 5)
        np.testing.assert_array_equal(m, np.ones((1, 5), bool))

    def test_right_aligned_chunk(self):
        m = causal_mask(2, 4)
        # Row 0 is absolute position 2, row 1 is position 3.
        np.testing.assert_array_equal(
            m, np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        )

    def test_rejects_sq_gt_sk(self):
        with pytest.raises(ShapeError):
            causal_mask(5, 3)


class TestValidateQkv:
    def test_accepts_gqa(self, rng):
        q = rng.standard_normal((8, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        assert validate_qkv(q, k, k) == (8, 2, 10, 10, 4)

    def test_rejects_rank(self, rng):
        q = rng.standard_normal((10, 4))
        with pytest.raises(ShapeError):
            validate_qkv(q, q, q)

    def test_rejects_head_mismatch(self, rng):
        q = rng.standard_normal((3, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, k)

    def test_rejects_dim_mismatch(self, rng):
        q = rng.standard_normal((2, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 8)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, k)

    def test_rejects_kv_shape_mismatch(self, rng):
        q = rng.standard_normal((2, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        v = rng.standard_normal((2, 9, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, v)

    def test_rejects_long_queries(self, rng):
        q = rng.standard_normal((2, 11, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, k)


class TestExpandKv:
    def test_identity_for_one(self, rng):
        x = rng.standard_normal((3, 5, 2))
        assert expand_kv(x, 1) is x

    def test_grouped_layout(self, rng):
        x = rng.standard_normal((2, 5, 3))
        out = expand_kv(x, 3)
        assert out.shape == (6, 5, 3)
        # Consecutive query heads share a KV head (LLaMA repeat_kv layout).
        for g in range(2):
            for r in range(3):
                np.testing.assert_array_equal(out[g * 3 + r], x[g])


class TestMaskedRowSoftmax:
    def test_masked_entries_zero(self, rng):
        scores = rng.standard_normal((2, 4, 4)).astype(np.float32)
        mask = np.tril(np.ones((4, 4), bool))
        p = masked_row_softmax(scores, mask)
        assert np.all(p[:, 0, 1:] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)

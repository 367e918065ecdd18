"""Position encodings: discontinuous-ID support is the paper's §4.2 core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.positional import (
    AlibiBias,
    LearnedPositionalEmbedding,
    RotaryEmbedding,
    alibi_slopes,
)
from repro.llm.positional.rope import rotate

RNG = np.random.default_rng(3)


class TestRotaryEmbedding:
    def test_rejects_odd_head_dim(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(head_dim=7, max_position=16)

    def test_position_zero_is_identity(self):
        rope = RotaryEmbedding(head_dim=8, max_position=32)
        x = RNG.normal(size=(2, 1, 8)).astype(np.float32)
        np.testing.assert_allclose(rotate(x, *rope.rows(np.array([0]))), x, atol=1e-6)

    def test_preserves_norm(self):
        """Rotations are orthogonal: token norms are unchanged."""
        rope = RotaryEmbedding(head_dim=16, max_position=64)
        x = RNG.normal(size=(4, 10, 16)).astype(np.float32)
        out = rotate(x, *rope.rows(np.arange(10)))
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-4
        )

    def test_relative_position_property(self):
        """q·k after RoPE depends only on the position *difference* — the
        property that makes gapped absolute IDs semantically safe (§3.1)."""
        rope = RotaryEmbedding(head_dim=8, max_position=512)
        q = RNG.normal(size=(1, 1, 8)).astype(np.float32)
        k = RNG.normal(size=(1, 1, 8)).astype(np.float32)

        def score(qpos, kpos):
            qr = rotate(q, *rope.rows(np.array([qpos])))
            kr = rotate(k, *rope.rows(np.array([kpos])))
            return float(qr[0, 0] @ kr[0, 0])

        assert score(10, 4) == pytest.approx(score(110, 104), abs=1e-3)
        assert score(300, 250) == pytest.approx(score(53, 3), abs=1e-3)

    def test_discontinuous_ids_match_table_lookup(self):
        """Applying at gapped IDs equals applying at contiguous IDs and
        selecting — the lookup-table adaptation of §4.2."""
        rope = RotaryEmbedding(head_dim=8, max_position=128)
        x = RNG.normal(size=(2, 3, 8)).astype(np.float32)
        gapped = np.array([5, 40, 99])
        full = RNG.normal(size=(2, 128, 8)).astype(np.float32)
        full[:, gapped, :] = x
        out_full = rotate(full, *rope.rows(np.arange(128)))
        out_gapped = rotate(x, *rope.rows(gapped))
        np.testing.assert_allclose(out_gapped, out_full[:, gapped, :], atol=1e-5)

    def test_out_of_range_positions_rejected(self):
        rope = RotaryEmbedding(head_dim=8, max_position=16)
        x = RNG.normal(size=(1, 1, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            rotate(x, *rope.rows(np.array([16])))
        with pytest.raises(ValueError):
            rotate(x, *rope.rows(np.array([-1])))

    def test_mismatched_length_rejected(self):
        rope = RotaryEmbedding(head_dim=8, max_position=16)
        x = RNG.normal(size=(1, 3, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            rotate(x, *rope.rows(np.array([0, 1])))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=55))
    def test_relative_property_hypothesis(self, base, delta):
        rope = _ROPE
        q = _QK[0]
        k = _QK[1]
        qr = rotate(q, *rope.rows(np.array([base + delta])))
        kr = rotate(k, *rope.rows(np.array([base])))
        qr0 = rotate(q, *rope.rows(np.array([delta])))
        kr0 = rotate(k, *rope.rows(np.array([0])))
        assert float(qr[0, 0] @ kr[0, 0]) == pytest.approx(
            float(qr0[0, 0] @ kr0[0, 0]), abs=1e-3
        )


_ROPE = RotaryEmbedding(head_dim=8, max_position=256)
_QK = RNG.normal(size=(2, 1, 1, 8)).astype(np.float32)


class TestAlibi:
    def test_slopes_power_of_two(self):
        slopes = alibi_slopes(8)
        assert len(slopes) == 8
        # Geometric sequence with ratio 2^(-1) for 8 heads.
        ratios = slopes[1:] / slopes[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-6)
        assert slopes[0] == pytest.approx(2 ** (-1.0))

    def test_slopes_non_power_of_two(self):
        slopes = alibi_slopes(6)
        assert len(slopes) == 6
        assert np.all(slopes > 0)

    def test_bias_zero_at_same_position(self):
        bias = AlibiBias(4, 64).bias(np.array([5]), np.array([5]))
        np.testing.assert_allclose(bias[:, 0, 0], 0.0)

    def test_bias_grows_with_distance(self):
        ab = AlibiBias(2, 64)
        bias = ab.bias(np.array([10]), np.array([0, 5, 9]))
        # Keys further back receive more negative bias.
        assert bias[0, 0, 0] < bias[0, 0, 1] < bias[0, 0, 2] < 0

    def test_bias_depends_on_position_ids_not_indices(self):
        """Gapped IDs must yield the same bias as the equivalent distances —
        the lookup-table adaptation for ALiBi (§4.2)."""
        ab = AlibiBias(2, 512)
        a = ab.bias(np.array([100]), np.array([90]))
        b = ab.bias(np.array([400]), np.array([390]))
        np.testing.assert_allclose(a, b)

    def test_bias_shape(self):
        ab = AlibiBias(3, 64)
        assert ab.bias(np.arange(4), np.arange(7)).shape == (3, 4, 7)


class TestLearnedPositional:
    def test_lookup_adds_table_rows(self):
        table = RNG.normal(size=(16, 4)).astype(np.float32)
        pos = LearnedPositionalEmbedding(table)
        hidden = np.zeros((3, 4), dtype=np.float32)
        out = pos.apply(hidden, np.array([2, 9, 2]))
        np.testing.assert_array_equal(out[0], table[2])
        np.testing.assert_array_equal(out[1], table[9])
        np.testing.assert_array_equal(out[0], out[2])

    def test_discontinuous_ids_no_adaptation_needed(self):
        # The paper notes embedding tables need no changes (§4.2): any order
        # and gap pattern of IDs is just a gather.
        table = RNG.normal(size=(32, 4)).astype(np.float32)
        pos = LearnedPositionalEmbedding(table)
        hidden = np.zeros((3, 4), dtype=np.float32)
        out = pos.apply(hidden, np.array([31, 0, 17]))
        np.testing.assert_array_equal(out[0], table[31])

    def test_out_of_range_rejected(self):
        pos = LearnedPositionalEmbedding(np.zeros((8, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            pos.apply(np.zeros((1, 4), dtype=np.float32), np.array([8]))

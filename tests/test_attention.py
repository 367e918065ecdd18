"""Attention kernel: position-derived causality, GQA, masking equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.attention import (
    causal_position_mask,
    merge_heads,
    packed_prefill_attention,
    plan_packed_prefill,
    repeat_kv,
)
from repro.llm.kv import KVCache, LayerKV
from repro.llm.positional.alibi import AlibiBias

RNG = np.random.default_rng(9)


def one_layer_cache(n_kv_heads, head_dim, positions=()):
    """A one-layer cache holding random keys/values at ``positions``."""
    positions = np.asarray(positions, dtype=np.int64)
    shape = (n_kv_heads, len(positions), head_dim)
    if not len(positions):
        return KVCache([LayerKV(n_kv_heads, head_dim)])
    return KVCache([LayerKV.from_arrays(
        RNG.normal(size=shape).astype(np.float32),
        RNG.normal(size=shape).astype(np.float32),
        positions,
    )])


def attend_one(cache, q, k, v, positions, alibi=None):
    """One packed-prefill layer over a pack of one: ``(segment, context)``."""
    (seg,) = plan = plan_packed_prefill([(cache, len(positions))], positions, alibi)
    return seg, packed_prefill_attention(plan, 0, q, k, v)


class TestHeadReshaping:
    def test_split_merge_round_trip(self):
        """``merge_heads`` inverts the (heads, rows, head_dim) layout the
        kernels compute in."""
        x = RNG.normal(size=(5, 12)).astype(np.float32)
        heads = x.reshape(5, 3, 4).transpose(1, 0, 2)
        assert np.array_equal(merge_heads(heads), x)

    def test_split_shape(self):
        """The prefill kernel takes (rows, heads, head_dim) operands and
        returns each row's heads merged: (rows, heads * head_dim)."""
        q = RNG.normal(size=(7, 2, 4)).astype(np.float32)
        k = RNG.normal(size=(7, 1, 4)).astype(np.float32)
        v = RNG.normal(size=(7, 1, 4)).astype(np.float32)
        _, context = attend_one(one_layer_cache(1, 4), q, k, v, np.arange(7))
        assert context.shape == (7, 8)

    def test_repeat_kv_identity(self):
        x = RNG.normal(size=(2, 3, 4)).astype(np.float32)
        assert repeat_kv(x, 1) is x

    def test_repeat_kv_expands_heads(self):
        x = RNG.normal(size=(2, 3, 4)).astype(np.float32)
        out = repeat_kv(x, 3)
        assert out.shape == (6, 3, 4)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[3], x[1])


class TestCausalMask:
    def test_contiguous_positions_lower_triangular(self):
        mask = causal_position_mask(np.arange(4), np.arange(4))
        np.testing.assert_array_equal(mask, np.tril(np.ones((4, 4), dtype=bool)))

    def test_gapped_positions(self):
        # Query at position 100 sees keys at 5 and 50, not the one at 200.
        mask = causal_position_mask(np.array([100]), np.array([5, 50, 200]))
        np.testing.assert_array_equal(mask[0], [True, True, False])

    def test_suffix_sees_all_cached_modules(self):
        """Prompt Cache's core case: an uncached suffix token positioned
        after every module attends to all of them despite position gaps."""
        module_positions = np.array([0, 1, 2, 50, 51, 52, 90, 91])
        suffix = np.array([200])
        assert causal_position_mask(suffix, module_positions).all()

    def test_module_isolation_during_encoding(self):
        """A module's tokens never see positions after them — module B's
        range is invisible to module A even within one hypothetical pass."""
        a_positions = np.array([0, 1, 2])
        b_positions = np.array([10, 11])
        mask = causal_position_mask(a_positions, b_positions)
        assert not mask.any()


class TestAttentionScores:
    """The mask, scale and ALiBi semantics of the prefill kernel's scores."""

    def test_masked_entries_are_large_negative(self):
        # A cached key at position 2 (a later module) and queries at 0, 1:
        # every key after a query's position is masked, the rest are not.
        q = RNG.normal(size=(2, 1, 4)).astype(np.float32)
        k = RNG.normal(size=(2, 1, 4)).astype(np.float32)
        seg, context = attend_one(one_layer_cache(1, 4, [2]), q, k, k, np.arange(2))
        (_, _, bias, bias_from), = seg.tiles
        assert bias_from == 0  # a cached key lies above the chunk
        # Keys in cache order: positions [2, 0, 1].
        assert bias[0, 0] <= -1e8 and bias[0, 2] <= -1e8
        assert bias[1, 0] <= -1e8
        assert bias[0, 1] == bias[1, 1] == bias[1, 2] == 0
        # Query 0 sees only its own key, so its context is its own value.
        np.testing.assert_allclose(context[0], k[0, 0], rtol=1e-6)

    def test_scaling_by_sqrt_head_dim(self):
        # Query 1 scores key 0 (ones) at 16 / sqrt(16) = 4 and key 1
        # (zeros) at 0; the values pick the two weights apart.
        q = np.ones((2, 1, 16), dtype=np.float32)
        k = np.stack([np.ones(16), np.zeros(16)]).astype(np.float32)[:, None, :]
        v = np.zeros((2, 1, 16), dtype=np.float32)
        v[0, 0, 0] = v[1, 0, 1] = 1.0
        _, context = attend_one(one_layer_cache(1, 16), q, k, v, np.arange(2))
        e4 = np.exp(4.0)
        np.testing.assert_allclose(context[1, :2], [e4 / (e4 + 1), 1 / (e4 + 1)], rtol=1e-5)

    def test_alibi_bias_is_added(self):
        # A query at 10 over cached keys at 0 and 5 and itself: nothing is
        # masked, so the bias is exactly ALiBi's distance term.
        q = RNG.normal(size=(1, 2, 4)).astype(np.float32)
        k = RNG.normal(size=(1, 2, 4)).astype(np.float32)
        qpos, kpos = np.array([10]), np.array([0, 5, 10])
        alibi = AlibiBias(2, 64)
        plain, _ = attend_one(one_layer_cache(2, 4, [0, 5]), q, k, k, qpos)
        biased, _ = attend_one(one_layer_cache(2, 4, [0, 5]), q, k, k, qpos, alibi)
        (_, _, plain_bias, plain_from), = plain.tiles
        (_, _, biased_bias, biased_from), = biased.tiles
        assert plain_from == 2 and not plain_bias.any()
        assert biased_from == 0
        np.testing.assert_allclose(biased_bias, alibi.bias(qpos, kpos), atol=1e-5)


class TestGroupedBroadcastPaths:
    """The GQA broadcast matmul must match the np.repeat expansion exactly:
    each 2-D GEMM slice sees identical operands, so results are bit-equal."""

    def scores_via_repeat(self, q, k, n_rep):
        head_dim = q.shape[-1]
        expanded = repeat_kv(k, n_rep)
        return q @ expanded.transpose(0, 2, 1) / np.sqrt(np.float32(head_dim))

    @pytest.mark.parametrize("n_rep", [2, 4])
    @pytest.mark.parametrize("tq,tk", [(1, 7), (5, 5), (9, 23)])
    def test_grouped_scores_bit_equal_to_repeat(self, n_rep, tq, tk):
        from repro.llm.attention import grouped_scores

        n_kv, head_dim = 3, 8
        q = RNG.normal(size=(n_kv * n_rep, tq, head_dim)).astype(np.float32)
        k = RNG.normal(size=(n_kv, tk, head_dim)).astype(np.float32)
        got = grouped_scores(q, k, n_rep)
        want = self.scores_via_repeat(q, k, n_rep)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_rep", [2, 4])
    def test_grouped_context_bit_equal_to_repeat(self, n_rep):
        from repro.llm.attention import grouped_context

        n_kv, tq, tk, head_dim = 3, 5, 11, 8
        weights = RNG.normal(size=(n_kv * n_rep, tq, tk)).astype(np.float32)
        v = RNG.normal(size=(n_kv, tk, head_dim)).astype(np.float32)
        got = grouped_context(weights, v, n_rep)
        want = weights @ repeat_kv(v, n_rep)
        assert got.tobytes() == want.tobytes()

    def test_n_rep_one_passthrough(self):
        from repro.llm.attention import grouped_context, grouped_scores

        q = RNG.normal(size=(4, 3, 8)).astype(np.float32)
        k = RNG.normal(size=(4, 6, 8)).astype(np.float32)
        got = grouped_scores(q, k, 1)
        want = q @ k.transpose(0, 2, 1) / np.sqrt(np.float32(8))
        assert got.tobytes() == want.tobytes()
        w = RNG.normal(size=(4, 3, 6)).astype(np.float32)
        v = RNG.normal(size=(4, 6, 8)).astype(np.float32)
        assert grouped_context(w, v, 1).tobytes() == (w @ v).tobytes()


class TestDecodeMaskSkip:
    """A single query token at/after every cached key needs no mask; the
    fast path must be invisible (np.where with an all-True mask is the
    identity)."""

    def test_all_true_mask_is_identity(self):
        scores = RNG.normal(size=(2, 1, 9)).astype(np.float32)
        allowed = causal_position_mask(np.array([20]), np.arange(9))
        assert allowed.all()
        masked = np.where(allowed[None, :, :], scores, np.float32(-1e9))
        assert masked.tobytes() == scores.tobytes()

    def test_gapped_future_key_still_masked(self):
        # A cached key *after* the query position must not be attendable,
        # so the fast-path condition (all keys <= query) is required.
        allowed = causal_position_mask(np.array([5]), np.array([1, 2, 9]))
        assert not allowed.all()

"""KV containers: buffered growth, concat semantics, byte accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.config import tiny_config
from repro.llm.kv import (
    KVCache,
    LayerKV,
    ModuleKV,
    allocation_count,
    buffered_concat,
    naive_concat,
    reset_allocation_count,
)

RNG = np.random.default_rng(5)


def make_kv(heads=2, head_dim=4):
    return LayerKV(heads, head_dim, capacity=4)


def rand_block(heads, tokens, head_dim):
    return RNG.normal(size=(heads, tokens, head_dim)).astype(np.float32)


class TestLayerKV:
    def test_append_and_views(self):
        kv = make_kv()
        k = rand_block(2, 3, 4)
        v = rand_block(2, 3, 4)
        kv.append(k, v, np.array([0, 1, 2]))
        assert len(kv) == 3
        np.testing.assert_array_equal(kv.keys, k)
        np.testing.assert_array_equal(kv.values, v)
        np.testing.assert_array_equal(kv.positions, [0, 1, 2])

    def test_growth_preserves_contents(self):
        kv = make_kv()
        first_k, first_v = rand_block(2, 4, 4), rand_block(2, 4, 4)
        kv.append(first_k, first_v, np.arange(4))
        kv.append(rand_block(2, 10, 4), rand_block(2, 10, 4), np.arange(4, 14))
        assert len(kv) == 14
        np.testing.assert_array_equal(kv.keys[:, :4], first_k)

    def test_mismatched_lengths_rejected(self):
        kv = make_kv()
        with pytest.raises(ValueError):
            kv.append(rand_block(2, 3, 4), rand_block(2, 2, 4), np.arange(3))

    def test_positions_can_be_gapped(self):
        kv = make_kv()
        gapped = np.array([7, 100, 5000])
        kv.append(rand_block(2, 3, 4), rand_block(2, 3, 4), gapped)
        np.testing.assert_array_equal(kv.positions, gapped)

    def test_copy_is_independent(self):
        kv = make_kv()
        kv.append(rand_block(2, 2, 4), rand_block(2, 2, 4), np.arange(2))
        dup = kv.copy()
        dup.append(rand_block(2, 1, 4), rand_block(2, 1, 4), np.array([2]))
        assert len(kv) == 2 and len(dup) == 3

    def test_from_arrays(self):
        k, v = rand_block(2, 5, 4), rand_block(2, 5, 4)
        kv = LayerKV.from_arrays(k, v, np.arange(5))
        np.testing.assert_array_equal(kv.keys, k)

    def test_nbytes_counts_live_entries_only(self):
        kv = LayerKV(2, 4, capacity=100)
        kv.append(rand_block(2, 3, 4), rand_block(2, 3, 4), np.arange(3))
        # 2 tensors * 2 heads * 3 tokens * 4 dims * 4 bytes + positions
        assert kv.nbytes() == 2 * 2 * 3 * 4 * 4 + 3 * 8

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6))
    def test_append_sequence_property(self, chunk_sizes):
        kv = make_kv()
        total = 0
        for size in chunk_sizes:
            kv.append(
                rand_block(2, size, 4), rand_block(2, size, 4),
                np.arange(total, total + size),
            )
            total += size
        assert len(kv) == total
        np.testing.assert_array_equal(kv.positions, np.arange(total))


class TestKVCache:
    def test_empty_from_config(self):
        cache = KVCache.empty(tiny_config("llama"))
        assert len(cache.layers) == 2
        assert len(cache) == 0

    def test_length_tracks_layer_zero(self):
        cache = KVCache.empty(tiny_config("llama"))
        for layer in cache.layers:
            layer.append(rand_block(4, 3, 16), rand_block(4, 3, 16), np.arange(3))
        assert len(cache) == 3

    def test_copy_deep(self):
        cache = KVCache.empty(tiny_config("llama"))
        dup = cache.copy()
        dup.layers[0].append(rand_block(4, 1, 16), rand_block(4, 1, 16), np.array([0]))
        assert len(cache) == 0 and len(dup) == 1


class TestBufferedConcat:
    def test_matches_numpy_concatenate(self):
        arrays = [rand_block(2, n, 4) for n in (3, 1, 5)]
        np.testing.assert_array_equal(
            buffered_concat(arrays, axis=1), np.concatenate(arrays, axis=1)
        )

    def test_single_allocation(self):
        arrays = [rand_block(2, n, 4) for n in (2, 2, 2, 2)]
        reset_allocation_count()
        buffered_concat(arrays, axis=1)
        assert allocation_count() == 1

    def test_naive_concat_allocates_per_pair(self):
        arrays = [rand_block(2, n, 4) for n in (2, 2, 2, 2)]
        reset_allocation_count()
        out = naive_concat(arrays, axis=1)
        assert allocation_count() == len(arrays) - 1
        np.testing.assert_array_equal(out, np.concatenate(arrays, axis=1))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            buffered_concat([])

    def test_axis_zero(self):
        arrays = [rand_block(2, 3, 4), rand_block(1, 3, 4)]
        out = buffered_concat(arrays, axis=0)
        assert out.shape == (3, 3, 4)


class TestModuleKV:
    def make(self, tokens=6):
        return ModuleKV(
            keys=[rand_block(2, tokens, 4) for _ in range(3)],
            values=[rand_block(2, tokens, 4) for _ in range(3)],
            positions=np.arange(10, 10 + tokens),
        )

    def test_len(self):
        assert len(self.make(6)) == 6

    def test_slice(self):
        kv = self.make(6)
        part = kv.slice(2, 5)
        assert len(part) == 3
        np.testing.assert_array_equal(part.positions, [12, 13, 14])
        np.testing.assert_array_equal(part.keys[0], kv.keys[0][:, 2:5, :])

    def test_nbytes(self):
        kv = self.make(6)
        expected = 3 * 2 * (2 * 6 * 4 * 4) + 6 * 8
        assert kv.nbytes() == expected


class TestConcatProperty:
    """Paper §4.2: the buffered operator must be a drop-in replacement —
    bit-for-bit equal to both pairwise and one-shot concatenation."""

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
        heads=st.integers(min_value=1, max_value=4),
        head_dim=st.integers(min_value=1, max_value=8),
        axis=st.sampled_from([0, 1, 2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_three_concats_bit_equal(self, sizes, heads, head_dim, axis, seed):
        rng = np.random.default_rng(seed)
        arrays = []
        for n in sizes:
            shape = [heads, 5, head_dim]
            shape[axis] = n
            arrays.append(rng.normal(size=shape).astype(np.float32))
        reference = np.concatenate(arrays, axis=axis)
        buffered = buffered_concat(arrays, axis=axis)
        naive = naive_concat(arrays, axis=axis)
        assert buffered.tobytes() == reference.tobytes()
        assert naive.tobytes() == reference.tobytes()


class TestLayerKVAdopt:
    def test_adopt_shares_buffers_without_copy(self):
        keys = rand_block(2, 8, 4)
        values = rand_block(2, 8, 4)
        positions = np.arange(8)
        kv = LayerKV.adopt(keys, values, positions, length=5)
        assert len(kv) == 5
        assert kv.keys.base is keys  # view, not a copy
        np.testing.assert_array_equal(kv.keys, keys[:, :5, :])

    def test_adopt_appends_into_spare_capacity(self):
        keys = rand_block(2, 8, 4)
        values = rand_block(2, 8, 4)
        kv = LayerKV.adopt(keys, values, np.arange(8), length=5)
        reset_allocation_count()
        kv.append(rand_block(2, 2, 4), rand_block(2, 2, 4), np.array([5, 6]))
        assert allocation_count() == 0  # wrote in place
        assert len(kv) == 7

    def test_adopt_rejects_bad_length(self):
        keys = rand_block(2, 4, 4)
        with pytest.raises(ValueError):
            LayerKV.adopt(keys, keys.copy(), np.arange(4), length=9)


class TestModuleKVArena:
    def make_arena(self, layers=3, tokens=6):
        rng = np.random.default_rng(7)
        shape = (layers, 2, tokens, 4)
        return ModuleKV.from_arenas(
            rng.normal(size=shape).astype(np.float32),
            rng.normal(size=shape).astype(np.float32),
            np.arange(10, 10 + tokens),
        )

    def test_from_arenas_layers_are_views(self):
        kv = self.make_arena()
        assert kv.is_arena
        assert np.shares_memory(kv.keys[1], kv.key_arena)
        np.testing.assert_array_equal(kv.keys[1], kv.key_arena[1])

    def test_slice_stays_arena_backed(self):
        kv = self.make_arena()
        part = kv.slice(2, 5)
        assert part.is_arena
        np.testing.assert_array_equal(part.keys[0], kv.keys[0][:, 2:5, :])

    def test_ensure_arena_stacks_per_layer_lists(self):
        flat = ModuleKV(
            keys=[rand_block(2, 6, 4) for _ in range(3)],
            values=[rand_block(2, 6, 4) for _ in range(3)],
            positions=np.arange(6),
        )
        assert not flat.is_arena
        arena = flat.ensure_arena()
        assert arena.is_arena
        for i in range(3):
            np.testing.assert_array_equal(arena.keys[i], flat.keys[i])

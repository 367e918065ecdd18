"""Paged KV storage: page accounting, copy-on-write, engine equivalence;
and the key layout of every contiguous image, a spliced base's included."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.encoder import encode_module
from repro.cache.layout import layout_schema
from repro.llm.config import ModelConfig
from repro.llm.generation import decode_loop
from repro.llm.kv import KVCache, ModuleKV
from repro.llm.paged import (
    PAGE_TOKENS,
    PagePool,
    PagedKVCache,
    PagedLayerKV,
    SplicedKV,
    shared_batch_caches,
)
from repro.pml import Schema

RNG = np.random.default_rng(41)


def block(tokens, heads=2, head_dim=4):
    return RNG.normal(size=(heads, tokens, head_dim)).astype(np.float32)


def make_layer(pool=None):
    pool = pool or PagePool(2, 4)
    return PagedLayerKV(pool)


class TestPagePool:
    def test_allocate_and_reuse(self):
        pool = PagePool(2, 4)
        a = pool.allocate()
        pool.release(a)
        b = pool.allocate()
        assert b == a  # freed page recycled
        assert pool.stats.pages_allocated == 1

    def test_refcounting(self):
        pool = PagePool(2, 4)
        page = pool.allocate()
        pool.retain(page)
        pool.release(page)
        assert pool.live_pages == 1
        pool.release(page)
        assert pool.live_pages == 0

    def test_physical_bytes(self):
        pool = PagePool(2, 4)
        pool.allocate()
        per_page = 2 * (2 * PAGE_TOKENS * 4 * 4) + PAGE_TOKENS * 8
        assert pool.physical_bytes() == per_page


class TestPagedLayerKV:
    def test_matches_flat_layerkv_views(self):
        layer = make_layer()
        k, v = block(37), block(37)
        positions = np.arange(100, 137)
        layer.append(k, v, positions)
        assert len(layer) == 37
        np.testing.assert_array_equal(layer.keys, k)
        np.testing.assert_array_equal(layer.values, v)
        np.testing.assert_array_equal(layer.positions, positions)

    def test_incremental_appends(self):
        layer = make_layer()
        chunks = [block(5), block(PAGE_TOKENS), block(3)]
        offset = 0
        for c in chunks:
            layer.append(c, c, np.arange(offset, offset + c.shape[1]))
            offset += c.shape[1]
        np.testing.assert_array_equal(
            layer.keys, np.concatenate(chunks, axis=1)
        )

    def test_page_count(self):
        layer = make_layer()
        layer.append(block(PAGE_TOKENS * 2 + 1), block(PAGE_TOKENS * 2 + 1),
                     np.arange(PAGE_TOKENS * 2 + 1))
        assert len(layer.page_table) == 3

    def test_fork_shares_pages(self):
        layer = make_layer()
        layer.append(block(20), block(20), np.arange(20))
        sibling = layer.fork()
        assert sibling.page_table == layer.page_table
        assert layer.pool.live_pages == 2  # no duplication

    def test_cow_on_shared_partial_page(self):
        layer = make_layer()
        layer.append(block(20), block(20), np.arange(20))  # page1 partial (4 used)
        sibling = layer.fork()
        before = np.array(layer.keys)
        sibling.append(block(2), block(2), np.arange(20, 22))
        # The original's data is untouched; the sibling diverged privately.
        np.testing.assert_array_equal(layer.keys, before)
        assert sibling.page_table[-1] != layer.page_table[-1]
        assert layer.pool.stats.cow_copies == 1

    def test_full_tail_page_not_copied(self):
        layer = make_layer()
        layer.append(block(PAGE_TOKENS), block(PAGE_TOKENS), np.arange(PAGE_TOKENS))
        sibling = layer.fork()
        sibling.append(block(1), block(1), np.array([PAGE_TOKENS]))
        # Appends after a full page need a fresh page, never a copy.
        assert layer.pool.stats.cow_copies == 0

    def test_free_releases_everything(self):
        pool = PagePool(2, 4)
        layer = PagedLayerKV(pool)
        layer.append(block(40), block(40), np.arange(40))
        layer.free()
        assert pool.live_pages == 0
        assert len(layer) == 0

    def test_mismatched_append_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            layer.append(block(3), block(2), np.arange(3))


def _one_layer_config(heads=2, head_dim=4):
    return ModelConfig(
        name="layout", architecture="llama", vocab_size=8, d_model=heads * head_dim,
        n_layers=1, n_heads=heads, n_kv_heads=heads, d_ff=8, max_position=4096,
        positional="rope", norm="rmsnorm", mlp="swiglu", parallel_block=False,
    )


def _spliced_base(tokens=40):
    """A one-layer base spliced from one module, plus its K-major
    ``(keys, values, positions)``."""
    k, v, positions = block(tokens), block(tokens), np.arange(tokens)
    module = ModuleKV(keys=[k], values=[v], positions=positions)
    return PagedKVCache.from_module_kvs(_one_layer_config(), [module]), [k, v, positions]


def _extend(cache, reference, tokens):
    """Append ``tokens`` fresh tokens to ``cache`` and to its reference."""
    k, v = block(tokens), block(tokens)
    start = int(reference[2][-1]) + 1
    positions = np.arange(start, start + tokens)
    cache.layers[0].append(k, v, positions)
    return [
        np.concatenate([reference[0], k], axis=1),
        np.concatenate([reference[1], v], axis=1),
        np.concatenate([reference[2], positions]),
    ]


def _layout_case(name):
    """``(layer, K-major reference, live pages)`` for one way a
    sequence's contiguous image comes to be."""
    base, reference = _spliced_base()  # 40 tokens: three pages
    if name == "spliced":
        return base, reference, 3
    fork = base.fork()
    if name == "fork-append":  # the fork copies the shared partial page
        return fork, _extend(fork, reference, 5), 4
    if name == "grown":  # 140 tokens outgrow 40 + the headroom
        fork.layers[0].keys  # gathered before the appends, so they extend it
        reference = _extend(fork, reference, 100)
        assert fork.layers[0]._mirror.capacity >= 140
        return fork, reference, 3 + 7  # + the copy and six fresh pages
    assert name == "gathered"
    reference = _extend(fork, reference, 5)
    gathers = base.pools[0].stats.mirror_gathers
    fork.layers[0].keys  # the pages are gathered into a fresh image
    assert base.pools[0].stats.mirror_gathers == gathers + 1
    return fork, reference, 4


class TestImageLayout:
    @pytest.mark.parametrize("case", ["spliced", "fork-append", "grown", "gathered"])
    def test_keys_are_head_dim_major(self, case):
        """However an image comes to be, its keys sit head_dim-major in
        memory — ``keys`` transposed is a row-major ``(n_kv_heads,
        head_dim, T)`` GEMM operand — while ``keys`` / ``values`` /
        ``positions`` read byte for byte as the K-major arrays and the
        byte accounting does not move."""
        cache, (keys, values, positions), live_pages = _layout_case(case)
        layer = cache.layers[0]
        transposed = np.swapaxes(layer.keys, -2, -1)
        assert transposed.strides[-1] == transposed.itemsize
        assert layer.keys.shape == keys.shape
        assert layer.keys.tobytes() == keys.tobytes()
        assert layer.values.tobytes() == values.tobytes()
        assert layer.positions.tobytes() == positions.tobytes()
        per_token = 2 * layer.n_kv_heads * layer.head_dim * 4 + 8
        assert cache.physical_bytes() == live_pages * PAGE_TOKENS * per_token
        assert cache.logical_bytes() == len(positions) * per_token

    def test_a_spliced_base_image_is_head_dim_major(self):
        """A base forked a second time becomes an image with the same
        layout — every layer's keys, in one allocation per side — and
        reads byte for byte as the modules it was spliced from."""
        config = _one_layer_config()
        modules = [
            ModuleKV(keys=[block(n)], values=[block(n)], positions=np.arange(a, a + n))
            for a, n in ((0, 7), (9, 12))
        ]
        base = SplicedKV.from_module_kvs(config, modules)
        assert all(k is m.keys[0] for (k, _), m in zip(base.parts[0], modules))  # in place
        base.to_image()
        (keys, values), = base.parts[0]
        assert np.swapaxes(keys, -2, -1).flags.c_contiguous
        np.testing.assert_array_equal(keys, np.concatenate([m.keys[0] for m in modules], axis=1))
        np.testing.assert_array_equal(values, np.concatenate([m.values[0] for m in modules], axis=1))
        np.testing.assert_array_equal(base.positions, np.r_[0:7, 9:21])


class TestEngineOnPagedCache:
    def test_forward_bit_exact_vs_flat_cache(self, llama):
        ids = np.array([5, 9, 12, 300, 41, 17, 23])
        flat = llama.forward(ids, np.arange(7), KVCache.empty(llama.config))
        paged_cache = PagedKVCache.empty(llama.config)
        paged = llama.forward(ids, np.arange(7), paged_cache)
        np.testing.assert_array_equal(flat, paged)
        assert len(paged_cache) == 7

    def test_decode_loop_on_paged_cache(self, llama):
        ids = np.array([5, 9, 12, 300, 41])
        cache = PagedKVCache.empty(llama.config)
        logits = llama.forward(ids, np.arange(5), cache)[-1]
        tokens, _ = decode_loop(
            llama, cache, logits, max_new_tokens=4, next_position=5
        )
        flat = KVCache.empty(llama.config)
        flat_logits = llama.forward(ids, np.arange(5), flat)[-1]
        flat_tokens, _ = decode_loop(
            llama, flat, flat_logits, max_new_tokens=4, next_position=5
        )
        assert tokens == flat_tokens


class TestSharedBatch:
    def make_module(self, llama, tok):
        layout = layout_schema(
            Schema.parse(
                '<schema name="p"><module name="doc">the quick brown fox jumps '
                "over the lazy dog again and again and again</module></schema>"
            ),
            tok,
        )
        return encode_module(llama, layout.module("doc")), layout

    def test_physical_memory_shared(self, llama, tok):
        kv, _ = self.make_module(llama, tok)
        caches, base = shared_batch_caches(llama.config, [kv], batch_size=8)
        # Eight requests, one physical copy: bytes ~= one module, not eight.
        physical = base.physical_bytes()
        logical = sum(c.logical_bytes() for c in caches)
        assert physical < logical / 4

    def test_outputs_match_unshared_serving(self, llama, tok):
        kv, layout = self.make_module(llama, tok)
        suffix = np.array(tok.encode(" what happened ?"))
        start = layout.total_length
        outputs = []
        caches, _ = shared_batch_caches(llama.config, [kv], batch_size=3)
        for cache in caches:
            logits = llama.forward(
                suffix, np.arange(start, start + len(suffix)), cache
            )[-1]
            tokens, _ = decode_loop(
                llama, cache, logits, max_new_tokens=4,
                next_position=start + len(suffix),
            )
            outputs.append(tokens)

        # Reference: private flat cache per request.
        from repro.llm.kv import LayerKV

        flat = KVCache(
            [
                LayerKV.from_arrays(kv.keys[i], kv.values[i], kv.positions)
                for i in range(llama.config.n_layers)
            ]
        )
        logits = llama.forward(suffix, np.arange(start, start + len(suffix)), flat)[-1]
        reference, _ = decode_loop(
            llama, flat, logits, max_new_tokens=4, next_position=start + len(suffix)
        )
        assert all(out == reference for out in outputs)

    def test_divergent_suffixes_stay_isolated(self, llama, tok):
        kv, layout = self.make_module(llama, tok)
        caches, _ = shared_batch_caches(llama.config, [kv], batch_size=2)
        start = layout.total_length
        s1 = np.array(tok.encode(" what happened ?"))
        s2 = np.array(tok.encode(" plan a trip now"))
        l1 = llama.forward(s1, np.arange(start, start + len(s1)), caches[0])[-1]
        l2 = llama.forward(s2, np.arange(start, start + len(s2)), caches[1])[-1]
        # Different suffixes over the same shared module: different logits,
        # and neither corrupted the other's view of the module pages.
        assert not np.allclose(l1, l2)
        np.testing.assert_array_equal(
            caches[0].layers[0].positions[: len(kv)], kv.positions
        )
        np.testing.assert_array_equal(
            caches[1].layers[0].keys[:, : len(kv)], kv.keys[0]
        )


class TestPageSizeParameter:
    def test_custom_page_size_round_trip(self):
        pool = PagePool(2, 4, page_tokens=5)
        layer = PagedLayerKV(pool)
        k, v = block(12), block(12)
        layer.append(k, v, np.arange(12))
        assert len(layer.page_table) == 3  # ceil(12/5)
        np.testing.assert_array_equal(layer.keys, k)

    def test_page_size_one(self):
        pool = PagePool(2, 4, page_tokens=1)
        layer = PagedLayerKV(pool)
        layer.append(block(3), block(3), np.arange(3))
        assert len(layer.page_table) == 3

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PagePool(2, 4, page_tokens=0)

    def test_shared_batch_respects_page_size(self, llama, tok):
        from repro.cache.encoder import encode_module
        from repro.cache.layout import layout_schema
        from repro.pml import Schema

        layout = layout_schema(
            Schema.parse('<schema name="z"><module name="m">the quick brown fox jumps over</module></schema>'),
            tok,
        )
        kv = encode_module(llama, layout.module("m"))
        _, base = shared_batch_caches(llama.config, [kv], 2, page_tokens=4)
        assert base.pools[0].page_tokens == 4

"""Shared KV prefixes by reference: a spliced base reads its modules in
place — their keys head_dim-major, however they reached the store —
forks keep private tails over it, and a tail arena seats those tails one
row each."""

from __future__ import annotations

import json
from unittest.mock import patch

import numpy as np
import pytest

from repro.cache import engine as engine_module
from repro.cache import persist
from repro.cache.compress import Fp16Codec, Int8Codec
from repro.cache.encoder import drop_param_slots, encode_module
from repro.cache.engine import PromptCache, _arena_splice
from repro.cache.layout import layout_schema
from repro.cache.persist import load_store, save_store
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.cluster import wire
from repro.llm import kv as kv_module
from repro.llm.config import ModelConfig
from repro.llm.generation import decode_loop
from repro.llm.kv import KVCache, LayerKV, ModuleKV
from repro.llm.paged import SplicedKV, TailArena, physical_bytes
from repro.pml import PLAIN_TEMPLATE, Schema

RNG = np.random.default_rng(41)


def block(tokens, heads=2, head_dim=4):
    return RNG.normal(size=(heads, tokens, head_dim)).astype(np.float32)


def _one_layer_config(heads=2, head_dim=4):
    return ModelConfig(
        name="layout", architecture="llama", vocab_size=8, d_model=heads * head_dim,
        n_layers=1, n_heads=heads, n_kv_heads=heads, d_ff=8, max_position=4096,
        positional="rope", norm="rmsnorm", mlp="swiglu", parallel_block=False,
    )


def _modules(*spans):
    """One-layer modules of fresh K/V at ``(start, length)`` spans."""
    return [
        ModuleKV(keys=[block(n)], values=[block(n)], positions=np.arange(a, a + n))
        for a, n in spans
    ]


def _base(*spans):
    return SplicedKV.from_module_kvs(_one_layer_config(), _modules(*spans))


LIB = (
    '<schema name="lib"><module name="a">the quick brown fox jumps over the '
    'lazy dog</module><module name="b">plan <param name="d" len="3"/> days '
    "ahead of the trip</module></schema>"
)
LIB_PROMPT = '<prompt schema="lib"><a/><b d="two"/> what happened ?</prompt>'
A, B = CacheKey("lib", "a"), CacheKey("lib", "b")


@pytest.fixture(scope="module")
def lib(llama, tok):
    pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(LIB)
    return pc


def _stored(pc, key=A) -> ModuleKV:
    return pc.store.peek(key).kv


def _fork_tail(pc, tmp_path):
    fork = SplicedKV.from_module_kvs(pc.model.config, [_stored(pc)]).fork()
    start = len(_stored(pc))
    pc.model.forward(np.arange(5), np.arange(start, start + 5), fork, logits=False)
    keys = [layer.tail.keys for layer in fork.layers]
    fork.free()
    return keys


def _reserve_growth(pc, tmp_path):
    kv = _stored(pc)
    layer = LayerKV(kv.keys[0].shape[0], kv.keys[0].shape[2], capacity=2)
    layer.append(kv.keys[0], kv.values[0], kv.positions)
    assert layer._keys.shape[1] >= len(kv) > 2  # grown
    return [layer.keys]


def _load_store(pc, tmp_path):
    save_store(pc.store, tmp_path)
    return load_store(tmp_path).peek(A).kv.keys


def _page_in(pc, tmp_path):
    save_store(pc.store, tmp_path)
    kv = ModuleCacheStore(snapshot_dir=tmp_path).fetch(A).entry.kv
    assert kv.is_mapped
    return kv.keys


def _wire_receive(pc, tmp_path):
    module = wire.serialize_module(A, _stored(pc))
    return wire.deserialize_module(module.meta, bytearray(b"".join(module.buffers))).keys


def _param_slot_drop(pc, tmp_path):
    layout = pc._registered("lib").layout.module("b")
    return drop_param_slots(_stored(pc, B), layout, list(layout.params.values())).keys


KEY_PATHS = {
    "encode": lambda pc, tmp_path: encode_module(
        pc.model, pc._registered("lib").layout.module("a")
    ).keys,
    "param-slot-drop": _param_slot_drop,
    "load_store": _load_store,
    "mapped-page-in": _page_in,
    "wire-receive": _wire_receive,
    "fp16-decode": lambda pc, tmp_path: Fp16Codec().decode(Fp16Codec().encode(_stored(pc))).keys,
    "int8-decode": lambda pc, tmp_path: Int8Codec().decode(Int8Codec().encode(_stored(pc))).keys,
    "fork-tail": _fork_tail,
    "reserve-growth": _reserve_growth,
    "arena-splice": lambda pc, tmp_path: [
        layer.keys for layer in _arena_splice(pc.model.config, [_stored(pc), _stored(pc, B)]).layers
    ],
}


class TestKeyLayout:
    @pytest.mark.parametrize("path", KEY_PATHS)
    def test_keys_reach_the_kernels_head_dim_major(self, lib, tmp_path, path):
        """Every path that hands keys to an attention kernel hands them
        head_dim-major: the token axis is the one with unit stride."""
        keys = KEY_PATHS[path](lib, tmp_path)
        assert keys and all(k.shape[1] > 1 for k in keys)
        assert all(k.strides[-1] != k.itemsize for k in keys), [k.strides for k in keys]


def _first_logits_and_output(pc):
    stream = pc.open_stream(LIB_PROMPT, max_new_tokens=4)
    stream.run()
    first = stream.logits.copy()
    return first, stream.finish().output_ids


class TestOldKeyLayouts:
    """Records and frames written before keys were stored head_dim-major
    load through the one copy ``ModuleKV`` construction makes, and serve
    exactly what a fresh encode serves."""

    @pytest.fixture(scope="class")
    def reference(self, lib):
        return _first_logits_and_output(lib)

    @pytest.fixture()
    def copies(self):
        with patch.object(
            kv_module, "head_dim_major_copy", wraps=kv_module.head_dim_major_copy
        ) as copies:
            yield copies

    def _served(self, pc_store, llama, tok, reference, copies, expected_copies):
        pc = PromptCache(llama, tok, store=pc_store, template=PLAIN_TEMPLATE)
        with patch.object(engine_module, "encode_module", side_effect=AssertionError("re-encoded")):
            pc.register_schema(LIB)
            first, output = _first_logits_and_output(pc)
        assert copies.call_count == expected_copies
        for key in (A, B):
            assert all(k.strides[-2] == k.itemsize for k in pc.store.peek(key).kv.keys)
        np.testing.assert_array_equal(first, reference[0])
        assert output == reference[1]

    def test_an_unlabelled_v2_record(self, lib, llama, tok, reference, copies, tmp_path):
        save_store(lib.store, tmp_path)
        index_path = tmp_path / "index.json"
        index = json.loads(index_path.read_text())
        for record in index["entries"]:
            del record["key_layout"]
            info = record["files"]["keys"]
            keys = np.ascontiguousarray(np.load(tmp_path / info["file"]).swapaxes(-2, -1))
            written = persist._write_atomic(
                tmp_path / info["file"], lambda handle: np.save(handle, keys)
            )
            written.update(
                shape=list(keys.shape), dtype=keys.dtype.str,
                offset=written["nbytes"] - keys.nbytes,
            )
            record["files"]["keys"] = written
        index_path.write_text(json.dumps(index))
        self._served(ModuleCacheStore(snapshot_dir=tmp_path), llama, tok, reference, copies, 2)

    def test_a_v1_npz_record(self, lib, llama, tok, reference, copies, tmp_path):
        records = []
        for key in (A, B):
            kv = _stored(lib, key)
            name = f"{key.schema}__{key.module}__{key.variant}.npz"
            arrays = {"positions": kv.positions}
            for i, (k, v) in enumerate(zip(kv.keys, kv.values)):
                arrays[f"keys{i}"], arrays[f"values{i}"] = np.ascontiguousarray(k), v
            np.savez(tmp_path / name, **arrays)
            records.append({
                "schema": key.schema, "module": key.module, "variant": key.variant,
                "file": name, "kind": "raw", "tier": "gpu", "pinned": False,
            })
        (tmp_path / "index.json").write_text(json.dumps(records))
        self._served(load_store(tmp_path), llama, tok, reference, copies, 2)

    def test_an_old_header_wire_frame(self, lib, llama, tok, reference, copies):
        store = ModuleCacheStore()
        for key in (A, B):
            kv = _stored(lib, key)
            named = [("positions", kv.positions)]
            for i, (k, v) in enumerate(zip(kv.keys, kv.values)):
                named += [(f"keys{i}", np.ascontiguousarray(k)), (f"values{i}", v)]
            segments, buffers = wire._segment_views(named)
            payload = bytearray(b"".join(buffers))
            meta = {
                "schema": key.schema, "module": key.module, "variant": key.variant,
                "kind": "raw", "segments": segments, "total_bytes": len(payload),
                "checksum": f"{wire.xxh64(payload):016x}",
            }
            store.put(key, wire.deserialize_module(meta, payload))
        self._served(store, llama, tok, reference, copies, 2 * llama.config.n_layers)


class TestForkCache:
    def test_fork_views_read_base_then_appends(self):
        """A fork's layer reads as the base's tokens followed by every
        append, in order, across several appends."""
        base = _base((0, 5), (5, 11))
        fork = base.fork(capacity=2)
        chunks = [block(3), block(4)]
        for start, chunk in zip((16, 19), chunks):
            fork.layers[0].append(chunk, chunk, np.arange(start, start + chunk.shape[1]))
        layer = fork.layers[0]
        assert len(fork) == len(layer) == 23
        expected = np.concatenate([k for k, _ in base.parts[0]] + chunks, axis=1)
        np.testing.assert_array_equal(layer.keys, expected)
        np.testing.assert_array_equal(layer.positions, np.arange(23))
        assert layer.max_position == 22

    def test_appends_stay_private(self):
        """Two forks of one base read the same base arrays; what one
        appends neither the base nor its sibling sees."""
        base = _base((0, 20))
        first, second = base.fork(), base.fork()
        assert base.forks == 2
        before = base.parts[0][0][0].copy()
        first.layers[0].append(block(2), block(2), np.arange(20, 22))
        assert first.layers[0].parts[0][0] is second.layers[0].parts[0][0]
        np.testing.assert_array_equal(base.parts[0][0][0], before)
        assert len(first) == 22 and len(second) == 20
        assert second.layers[0].tail is None

    def test_forks_hold_the_base_once(self):
        """Bytes a batch of forks holds: the base once, every tail."""
        base = _base((0, 30))
        forks = [base.fork() for _ in range(4)]
        for fork in forks:
            fork.layers[0].append(block(3), block(3), np.arange(30, 33))
        per_token = 2 * 2 * 4 * 4 + 8
        assert physical_bytes(forks) == (30 + 4 * 3) * per_token
        assert sum(f.logical_bytes() for f in forks) == 4 * 33 * per_token

    def test_free_gives_the_base_back(self):
        base = _base((0, 8))
        fork = base.fork()
        fork.layers[0].append(block(2), block(2), np.arange(8, 10))
        fork.free()
        assert base.forks == 0
        assert fork.layers == []


class TestTailArena:
    def test_seat_moves_the_tail_into_a_row(self):
        """A seat copies the fork's private tail into the lowest free row
        and drops the fork's own tails; the row reads as the tail did and
        goes back on free, to be reused first."""
        config = _one_layer_config()
        base = SplicedKV.from_module_kvs(config, _modules((0, 6)))
        arena = TailArena(config, slots=2)
        fork = base.fork()
        keys, values = block(3), block(3)
        fork.layers[0].append(keys, values, np.arange(6, 9))
        tail = arena.seat(fork)
        assert tail is fork.tail and tail.slot == 0
        assert fork.layers[0].tail is None
        assert len(fork) == 9 and len(tail) == 3 and tail.shared_len == 6
        row_keys, row_values, row_positions = tail.kv(0)
        np.testing.assert_array_equal(row_keys, keys)
        np.testing.assert_array_equal(row_values, values)
        np.testing.assert_array_equal(row_positions, np.arange(6, 9))
        assert arena.live_slots == 1
        fork.free()
        assert arena.live_slots == 0 and base.forks == 0
        assert arena.seat(base.fork()).slot == 0

    def test_full_arena_refuses_a_seat(self):
        config = _one_layer_config()
        base = SplicedKV.from_module_kvs(config, _modules((0, 4)))
        arena = TailArena(config, slots=1)
        assert arena.seat(base.fork()) is not None
        refused = base.fork()
        assert arena.seat(refused) is None and refused.tail is None

    def test_reserve_doubles_and_keeps_live_rows(self):
        config = _one_layer_config()
        base = SplicedKV.from_module_kvs(config, _modules((0, 4)))
        arena = TailArena(config, slots=2)
        fork = base.fork()
        keys = block(5)
        fork.layers[0].append(keys, keys, np.arange(4, 9))
        tail = arena.seat(fork)
        assert arena.capacity == 32
        arena.reserve(70)
        assert arena.capacity == 128
        np.testing.assert_array_equal(tail.kv(0)[0], keys)
        with pytest.raises(ValueError):
            TailArena(config, slots=0)


DOC = (
    '<schema name="p"><module name="doc">the quick brown fox jumps '
    "over the lazy dog again and again and again</module></schema>"
)


def _doc_module(model, tok):
    layout = layout_schema(Schema.parse(DOC), tok)
    return encode_module(model, layout.module("doc")), layout.total_length


def _flat(model, kv):
    """A private flat cache holding ``kv``, as serving without sharing."""
    return KVCache([
        LayerKV.from_arrays(kv.keys[i], kv.values[i], kv.positions)
        for i in range(model.config.n_layers)
    ])


def _run(model, cache, suffix, start, max_new_tokens=4):
    positions = np.arange(start, start + len(suffix))
    logits = model.forward(suffix, positions, cache)[-1]
    tokens, _ = decode_loop(
        model, cache, logits, max_new_tokens=max_new_tokens,
        next_position=start + len(suffix),
    )
    return logits, tokens


class TestEngineOnForks:
    def test_forks_decode_like_a_private_flat_cache(self, llama, tok):
        """Every fork of one base, prefilled and decoded on its own tail,
        samples what a private flat copy of the module samples."""
        kv, start = _doc_module(llama, tok)
        suffix = np.array(tok.encode(" what happened ?"))
        _, reference = _run(llama, _flat(llama, kv), suffix, start)
        base = SplicedKV.from_module_kvs(llama.config, [kv])
        forks = [base.fork() for _ in range(3)]
        assert all(_run(llama, fork, suffix, start)[1] == reference for fork in forks)
        for fork in forks:
            fork.free()

    def test_divergent_suffixes_stay_isolated(self, llama, tok):
        """Different suffixes over one base give different logits, and
        neither disturbs the module K/V the other reads."""
        kv, start = _doc_module(llama, tok)
        base = SplicedKV.from_module_kvs(llama.config, [kv])
        first, second = base.fork(), base.fork()
        l1, _ = _run(llama, first, np.array(tok.encode(" what happened ?")), start)
        l2, _ = _run(llama, second, np.array(tok.encode(" plan a trip now")), start)
        assert not np.allclose(l1, l2)
        np.testing.assert_array_equal(first.layers[0].positions[: len(kv)], kv.positions)
        np.testing.assert_array_equal(second.layers[0].keys[:, : len(kv)], kv.keys[0])
        first.free()
        second.free()

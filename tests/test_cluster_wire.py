"""Wire protocol: framing, module round-trips, the SHA-256 that guards
them, and what a round trip costs in call events."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.cache.storage import CacheKey
from repro.cluster import wire
from repro.llm.kv import ModuleKV
from tests.test_churn_cost import profiled


def make_module_kv(layers=2, heads=2, tokens=5, dim=4, seed=0) -> ModuleKV:
    rng = np.random.default_rng(seed)
    shape = (heads, tokens, dim)
    return ModuleKV(
        keys=[rng.standard_normal(shape).astype(np.float32) for _ in range(layers)],
        values=[rng.standard_normal(shape).astype(np.float32) for _ in range(layers)],
        positions=np.arange(10, 10 + tokens, dtype=np.int64),
    )


class TestFraming:
    def test_round_trip(self):
        frame = wire.pack_frame(wire.MSG_CHUNK, b"abcdef")
        msg_type, length = wire.unpack_header(frame[: wire.HEADER_SIZE])
        assert (msg_type, length) == (wire.MSG_CHUNK, 6)
        assert frame[wire.HEADER_SIZE:] == b"abcdef"

    def test_header_only_pack_matches_full_frame(self):
        payload = b"xyz"
        assert (
            wire.pack_header(wire.MSG_CHUNK, len(payload)) + payload
            == wire.pack_frame(wire.MSG_CHUNK, payload)
        )

    def test_bad_magic_and_version(self):
        good = bytearray(wire.pack_frame(wire.MSG_PING))
        bad_magic = bytes(b"JUNK") + bytes(good[4:])
        with pytest.raises(wire.WireError, match="magic"):
            wire.unpack_header(bad_magic[: wire.HEADER_SIZE])
        bad_version = bytes(good[:4]) + bytes([99]) + bytes(good[5:])
        with pytest.raises(wire.WireError, match="version"):
            wire.unpack_header(bad_version[: wire.HEADER_SIZE])

    def test_a_version_1_peer_is_refused_at_its_first_header(self):
        header = struct.pack("!4sBB2xI", wire.MAGIC, 1, wire.MSG_GET, 0)
        with pytest.raises(wire.WireError, match="unsupported protocol version 1"):
            wire.unpack_header(header)

    def test_oversize_frame_rejected(self):
        header = struct.pack(
            "!4sBB2xI", wire.MAGIC, wire.VERSION, wire.MSG_CHUNK, 0
        )
        # Rewrite length beyond the cap.
        header = header[:8] + (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.unpack_header(header)

    def test_get_round_trip(self):
        key = CacheKey("sch", "mod", "solo")
        frame = wire.pack_get(key)
        assert wire.key_from_request(frame[wire.HEADER_SIZE:]) == key


def assemble(module: wire.WireModule, chunk_size=64) -> bytearray:
    body = bytearray()
    for chunk in wire.iter_chunks(module, chunk_size):
        body.extend(chunk)
    return body


class TestModuleRoundTrip:
    def test_raw_round_trip(self):
        kv = make_module_kv()
        key = CacheKey("s", "m")
        module = wire.serialize_module(key, kv)
        assert module.meta["kind"] == "raw"
        assert module.total_bytes == int(module.meta["total_bytes"])
        out = wire.deserialize_module(module.meta, assemble(module))
        assert isinstance(out, ModuleKV)
        np.testing.assert_array_equal(out.positions, kv.positions)
        for a, b in zip(out.keys, kv.keys):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(out.values, kv.values):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("size", [0, 1, 3, 4, 7, 8, 31, 32, 33, 63, 257, 4096])
    def test_sender_digest_matches_receiver(self, size):
        """The sender hashes buffer by buffer, the receiver the assembled
        payload in one pass: the digests agree at any module length and
        chunking."""
        kv = make_module_kv(tokens=size, seed=size)
        module = wire.serialize_module(CacheKey("s", "m"), kv)
        body = assemble(module, chunk_size=13)  # awkward boundary on purpose
        assert module.meta["checksum"] == hashlib.sha256(body).hexdigest()
        out = wire.deserialize_module(module.meta, body)
        np.testing.assert_array_equal(out.positions, kv.positions)

    def test_chunking_never_splits_correctness(self):
        kv = make_module_kv(tokens=17)
        module = wire.serialize_module(CacheKey("s", "m"), kv)
        for chunk_size in (1, 7, 64, 1 << 20):
            out = wire.deserialize_module(module.meta, assemble(module, chunk_size))
            np.testing.assert_array_equal(out.keys[1], kv.keys[1])

    def test_corruption_detected(self):
        module = wire.serialize_module(CacheKey("s", "m"), make_module_kv())
        body = assemble(module)
        body[len(body) // 2] ^= 0xFF
        with pytest.raises(wire.WireError, match="checksum"):
            wire.deserialize_module(module.meta, body)

    def test_truncation_detected(self):
        module = wire.serialize_module(CacheKey("s", "m"), make_module_kv())
        body = assemble(module)[:-8]
        with pytest.raises(wire.WireError, match="declared"):
            wire.deserialize_module(module.meta, body)

    def test_unknown_payload_kind_refused(self):
        module = wire.serialize_module(CacheKey("s", "m"), make_module_kv())
        body = assemble(module)
        for kind in ("int8", None):
            meta = {**module.meta, "kind": kind}
            with pytest.raises(wire.WireError, match="payload kind"):
                wire.deserialize_module(meta, body)

    def test_a_header_without_the_stored_key_layout_is_refused(self):
        module = wire.serialize_module(CacheKey("s", "m"), make_module_kv())
        body = assemble(module)
        no_layout = {k: v for k, v in module.meta.items() if k != "key_layout"}
        for meta in (no_layout, {**module.meta, "key_layout": "token_major"}):
            with pytest.raises(wire.WireError, match="key layout"):
                wire.deserialize_module(meta, body)

    def test_zero_copy_send_views(self):
        kv = make_module_kv()
        module = wire.serialize_module(CacheKey("s", "m"), kv)
        # The first buffer is a view over the positions tensor itself.
        assert module.buffers[0].obj is kv.positions or isinstance(
            module.buffers[0].obj, np.ndarray
        )
        assert sum(len(b) for b in module.buffers) == kv.nbytes()


def test_a_round_trip_costs_under_400_call_events():
    """Serializing and deserializing a 128-token module of the
    benchmark's model shape (4 layers x 8 KV heads x head_dim 32;
    1,049,600 payload bytes) costs a few hundred call events — the
    digest is one C call per buffer, not a Python loop per word.
    Measured: 202 + 117 (protocol version 1's pure-Python 64-bit hash
    made 262,664 + 262,536)."""
    shape = (4, 8, 128, 32)
    rng = np.random.default_rng(0)
    kv = ModuleKV.from_arenas(
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        np.arange(128, dtype=np.int64),
    )
    key = CacheKey("s", "m")
    module, sent = profiled(lambda: wire.serialize_module(key, kv))
    body = assemble(module, wire.DEFAULT_CHUNK_SIZE)
    assert module.total_bytes == len(body) == 1_049_600
    out, received = profiled(lambda: wire.deserialize_module(module.meta, body))
    np.testing.assert_array_equal(out.keys[3], kv.keys[3])
    assert sent["all"] + received["all"] <= 400, (sent, received)

"""The module-KV wire protocol: how encoded modules travel between workers.

Prompt Cache's economics (§3.3) are "encode once, splice cheaply" — but a
single process can only amortize encoding over its own requests. The
cluster's distribution plane extends the amortization across workers: a
worker that is missing a module fetches the *encoded attention states*
from the peer that already paid the prefill, instead of re-encoding.

This module defines the byte format both ends speak:

- **Framing.** Every message is one length-prefixed frame::

      !4s B B 2x I   = magic "PCKV", version, msg type, pad, payload length

  followed by ``length`` payload bytes. Small control payloads are JSON;
  tensor payloads are raw bytes streamed as CHUNK frames.
- **Module transfer.** A GET names a :class:`~repro.cache.storage.CacheKey`.
  The reply is one META frame (JSON header: schema/module/variant, payload
  kind — ``raw`` :class:`~repro.llm.kv.ModuleKV` or a codec name for
  :class:`~repro.cache.compress.CompressedModuleKV` — per-segment dtype and
  shape, total byte count, xxh64 checksum, and for raw keys their
  ``key_layout``: each layer's keys travel in the memory order they are
  stored in, ``(n_kv_heads, head_dim, T)``), then the segments' bytes as
  CHUNK frames, then an END frame. Serialization is **zero-copy** on the
  send side: contiguous tensors are framed as :class:`memoryview`\\ s, never
  joined into an intermediate buffer. The receiver assembles into one
  preallocated ``bytearray`` and builds NumPy views over it — one
  allocation for the whole module. A header from an older peer has no
  ``key_layout``: its keys are ``(n_kv_heads, T, head_dim)`` and are
  copied into the stored layout on receipt.
- **Integrity.** The META header carries an xxh64 checksum of the whole
  payload; the receiver verifies before the module is trusted. xxh64 is
  implemented here in pure Python (the container has no ``xxhash`` wheel)
  and validated against the reference test vectors.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.cache.compress import CompressedModuleKV
from repro.cache.storage import CacheKey
from repro.llm.kv import KEY_LAYOUT, ModuleKV

MAGIC = b"PCKV"
VERSION = 1

# Message types.
MSG_GET = 1  # request one module by key (JSON payload)
MSG_META = 2  # module header: kind, segments, checksum (JSON payload)
MSG_CHUNK = 3  # raw payload bytes
MSG_END = 4  # transfer complete (JSON: {"checksum": ...})
MSG_NOT_FOUND = 5  # key unknown to this peer
MSG_ERROR = 6  # peer-side failure (JSON: {"error": ...})
MSG_PING = 7  # liveness probe
MSG_PONG = 8  # probe reply (JSON: {"state", "queue_depth"})
MSG_STATS = 9  # request the peer's metrics snapshot
MSG_STATS_REPLY = 10  # JSON metrics snapshot

_HEADER = struct.Struct("!4sBB2xI")
HEADER_SIZE = _HEADER.size

DEFAULT_CHUNK_SIZE = 1 << 18  # 256 KiB per CHUNK frame
MAX_FRAME_BYTES = 1 << 30  # reject absurd lengths before allocating

_RAW_KIND = "raw"


class WireError(Exception):
    """Malformed frame, protocol violation, or checksum mismatch."""


# ---------------------------------------------------------------------------
# xxh64 — pure-Python implementation of the XXH64 digest.
# ---------------------------------------------------------------------------

_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5
_M64 = (1 << 64) - 1


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def _round(acc: int, word: int) -> int:
    return (_rotl((acc + word * _P2) & _M64, 31) * _P1) & _M64


def _merge(h: int, acc: int) -> int:
    h ^= _round(0, acc)
    return ((h * _P1) + _P4) & _M64


def xxh64(data: bytes | bytearray | memoryview, seed: int = 0) -> int:
    """XXH64 digest of ``data`` as an unsigned 64-bit integer."""
    view = memoryview(data).cast("B")
    n = len(view)
    i = 0
    if n >= 32:
        v1 = (seed + _P1 + _P2) & _M64
        v2 = (seed + _P2) & _M64
        v3 = seed & _M64
        v4 = (seed - _P1) & _M64
        words = struct.unpack_from(f"<{(n // 8)}Q", view)
        stripes = n // 32
        for s in range(stripes):
            j = 4 * s
            v1 = _round(v1, words[j])
            v2 = _round(v2, words[j + 1])
            v3 = _round(v3, words[j + 2])
            v4 = _round(v4, words[j + 3])
        i = stripes * 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M64
        h = _merge(h, v1)
        h = _merge(h, v2)
        h = _merge(h, v3)
        h = _merge(h, v4)
    else:
        h = (seed + _P5) & _M64
    h = (h + n) & _M64
    while i + 8 <= n:
        (word,) = struct.unpack_from("<Q", view, i)
        h = ((_rotl(h ^ _round(0, word), 27) * _P1) + _P4) & _M64
        i += 8
    if i + 4 <= n:
        (word,) = struct.unpack_from("<I", view, i)
        h = ((_rotl(h ^ (word * _P1) & _M64, 23) * _P2) + _P3) & _M64
        i += 4
    while i < n:
        h = ((_rotl(h ^ (view[i] * _P5) & _M64, 11)) * _P1) & _M64
        i += 1
    h ^= h >> 33
    h = (h * _P2) & _M64
    h ^= h >> 29
    h = (h * _P3) & _M64
    h ^= h >> 32
    return h


class StreamingXXH64:
    """Incremental xxh64 over chunks (the receiver hashes as it reads).

    Buffers at most 31 bytes between updates; the digest is identical to
    :func:`xxh64` over the concatenated input.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & _M64
        self._v = [
            (seed + _P1 + _P2) & _M64,
            (seed + _P2) & _M64,
            seed & _M64,
            (seed - _P1) & _M64,
        ]
        self._buffer = bytearray()
        self._total = 0
        self._seen_stripes = False

    def update(self, data: bytes | bytearray | memoryview) -> None:
        view = memoryview(data).cast("B")
        self._total += len(view)
        self._buffer.extend(view)
        usable = len(self._buffer) - (len(self._buffer) % 32)
        if usable:
            words = struct.unpack_from(f"<{usable // 8}Q", self._buffer)
            v1, v2, v3, v4 = self._v
            for s in range(usable // 32):
                j = 4 * s
                v1 = _round(v1, words[j])
                v2 = _round(v2, words[j + 1])
                v3 = _round(v3, words[j + 2])
                v4 = _round(v4, words[j + 3])
            self._v = [v1, v2, v3, v4]
            del self._buffer[:usable]
            self._seen_stripes = True

    def digest(self) -> int:
        if self._seen_stripes:
            v1, v2, v3, v4 = self._v
            h = (
                _rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)
            ) & _M64
            for v in self._v:
                h = _merge(h, v)
        else:
            h = (self.seed + _P5) & _M64
        h = (h + self._total) & _M64
        view = memoryview(bytes(self._buffer))
        i, n = 0, len(view)
        while i + 8 <= n:
            (word,) = struct.unpack_from("<Q", view, i)
            h = ((_rotl(h ^ _round(0, word), 27) * _P1) + _P4) & _M64
            i += 8
        if i + 4 <= n:
            (word,) = struct.unpack_from("<I", view, i)
            h = ((_rotl(h ^ (word * _P1) & _M64, 23) * _P2) + _P3) & _M64
            i += 4
        while i < n:
            h = ((_rotl(h ^ (view[i] * _P5) & _M64, 11)) * _P1) & _M64
            i += 1
        h ^= h >> 33
        h = (h * _P2) & _M64
        h ^= h >> 29
        h = (h * _P3) & _M64
        h ^= h >> 32
        return h


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def pack_frame(msg_type: int, payload: bytes | memoryview = b"") -> bytes:
    """One complete frame (header + payload) as a bytes object."""
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + bytes(payload)


def pack_header(msg_type: int, payload_len: int) -> bytes:
    """Just the 12-byte frame header — used to frame a memoryview payload
    without copying it into a joined buffer."""
    return _HEADER.pack(MAGIC, VERSION, msg_type, payload_len)


def pack_json(msg_type: int, obj: dict) -> bytes:
    return pack_frame(msg_type, json.dumps(obj, sort_keys=True).encode())


def unpack_header(header: bytes) -> tuple[int, int]:
    """(msg_type, payload_len) from a 12-byte header; raises WireError."""
    try:
        magic, version, msg_type, length = _HEADER.unpack(header)
    except struct.error as exc:
        raise WireError(f"short frame header ({len(header)} bytes)") from exc
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds limit {MAX_FRAME_BYTES}")
    return msg_type, length


async def read_frame(reader) -> tuple[int, bytes]:
    """Read one frame from an asyncio StreamReader: (msg_type, payload).

    Raises :class:`asyncio.IncompleteReadError` on EOF mid-frame and
    :class:`WireError` on a malformed header.
    """
    header = await reader.readexactly(HEADER_SIZE)
    msg_type, length = unpack_header(header)
    payload = await reader.readexactly(length) if length else b""
    return msg_type, payload


def decode_json(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed JSON payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Module serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireModule:
    """A module's KV states flattened for the wire.

    ``buffers`` are C-contiguous byte views over the original tensors —
    the frames go straight from tensor memory to the socket.
    """

    meta: dict
    buffers: list[memoryview]

    @property
    def total_bytes(self) -> int:
        return sum(len(b) for b in self.buffers)


def _segment_views(
    named: list[tuple[str, np.ndarray]]
) -> tuple[list[dict], list[memoryview]]:
    segments: list[dict] = []
    buffers: list[memoryview] = []
    for name, array in named:
        contiguous = np.ascontiguousarray(array)
        segments.append(
            {
                "name": name,
                "dtype": str(contiguous.dtype),
                "shape": list(contiguous.shape),
                "nbytes": int(contiguous.nbytes),
            }
        )
        buffers.append(memoryview(contiguous).cast("B"))
    return segments, buffers


def serialize_module(key: CacheKey, kv) -> WireModule:
    """Flatten a :class:`ModuleKV` or :class:`CompressedModuleKV` into a
    wire header + zero-copy payload views. The header records the payload
    ``kind`` (``"raw"`` or the codec name) so the receiver rebuilds the
    exact store representation."""
    if isinstance(kv, ModuleKV):
        kind = _RAW_KIND
        named: list[tuple[str, np.ndarray]] = [("positions", kv.positions)]
        for i, (k, v) in enumerate(zip(kv.keys, kv.values)):
            named.append((f"keys{i}", k.swapaxes(-2, -1)))
            named.append((f"values{i}", v))
    elif isinstance(kv, CompressedModuleKV):
        kind = kv.codec
        named = [("positions", kv.positions)]
        for field_name in sorted(kv.payload):
            for i, tensor in enumerate(kv.payload[field_name]):
                named.append((f"{field_name}:{i}", tensor))
    else:
        raise WireError(f"cannot serialize {type(kv).__name__} for the wire")
    segments, buffers = _segment_views(named)
    checksum = StreamingXXH64()
    for buf in buffers:
        checksum.update(buf)
    meta = {
        "schema": key.schema,
        "module": key.module,
        "variant": key.variant,
        "kind": kind,
        "segments": segments,
        "total_bytes": sum(len(b) for b in buffers),
        "checksum": f"{checksum.digest():016x}",
    }
    if kind == _RAW_KIND:
        meta["key_layout"] = KEY_LAYOUT
    return WireModule(meta=meta, buffers=buffers)


def iter_chunks(
    wire_module: WireModule, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> "list[memoryview]":
    """Split the payload views into ≤ ``chunk_size`` memoryview slices,
    never crossing a copy — large tensors stream as several frames."""
    chunks: list[memoryview] = []
    for buf in wire_module.buffers:
        for start in range(0, len(buf), chunk_size):
            chunks.append(buf[start : start + chunk_size])
    return chunks


def deserialize_module(meta: dict, payload: bytearray | bytes):
    """Rebuild the stored KV object from META + assembled payload bytes.

    Verifies the checksum, then builds NumPy views over the payload
    buffer (zero-copy when ``payload`` is a writable bytearray).
    """
    declared = int(meta["total_bytes"])
    if len(payload) != declared:
        raise WireError(
            f"payload is {len(payload)} bytes, header declared {declared}"
        )
    checksum = f"{xxh64(payload):016x}"
    if checksum != meta["checksum"]:
        raise WireError(
            f"checksum mismatch: computed {checksum}, header {meta['checksum']}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for segment in meta["segments"]:
        dtype = np.dtype(segment["dtype"])
        shape = tuple(segment["shape"])
        nbytes = int(segment["nbytes"])
        array = np.frombuffer(
            payload, dtype=dtype, count=int(np.prod(shape)) if shape else 1,
            offset=offset,
        ).reshape(shape)
        arrays[segment["name"]] = array
        offset += nbytes
    positions = arrays.pop("positions")
    if meta["kind"] == _RAW_KIND:
        n_layers = sum(1 for name in arrays if name.startswith("keys"))
        keys = [arrays[f"keys{i}"] for i in range(n_layers)]
        if meta.get("key_layout") == KEY_LAYOUT:
            keys = [k.swapaxes(-2, -1) for k in keys]
        return ModuleKV(
            keys=keys,
            values=[arrays[f"values{i}"] for i in range(n_layers)],
            positions=positions,
        )
    payload_fields: dict[str, list[np.ndarray]] = {}
    by_field: dict[str, list[tuple[int, np.ndarray]]] = {}
    for name, array in arrays.items():
        field_name, _, index = name.rpartition(":")
        if not field_name:
            raise WireError(f"malformed segment name {name!r}")
        by_field.setdefault(field_name, []).append((int(index), array))
    for field_name, items in by_field.items():
        payload_fields[field_name] = [a for _, a in sorted(items)]
    return CompressedModuleKV(
        codec=meta["kind"], payload=payload_fields, positions=positions
    )


def key_from_request(payload: bytes) -> CacheKey:
    obj = decode_json(payload)
    try:
        return CacheKey(obj["schema"], obj["module"], obj["variant"])
    except KeyError as exc:
        raise WireError(f"GET request missing field {exc}") from exc


def pack_get(key: CacheKey) -> bytes:
    return pack_json(
        MSG_GET,
        {"schema": key.schema, "module": key.module, "variant": key.variant},
    )

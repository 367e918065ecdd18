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
  kind — always ``raw``, a :class:`~repro.llm.kv.ModuleKV`; any other kind
  is refused — per-segment dtype and shape, total byte count, SHA-256
  checksum, and the keys' ``key_layout``: each layer's keys travel in the
  memory order they are stored in, ``(n_kv_heads, head_dim, T)``; a
  header naming any other layout is refused), then the segments' bytes
  as CHUNK frames, then an END frame. Serialization is **zero-copy** on
  the send side: contiguous tensors are framed as
  :class:`memoryview`\\ s, never joined into an intermediate buffer.
  The receiver assembles into one preallocated ``bytearray`` and builds
  NumPy views over it — one allocation for the whole module.
- **Integrity.** The META header carries the hex SHA-256 of the whole
  payload (``hashlib``, the digest the snapshot plane records too); the
  receiver verifies it before the module is trusted. A peer speaking
  an earlier protocol version is refused at its first header.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.cache.storage import CacheKey
from repro.llm.kv import KEY_LAYOUT, ModuleKV

MAGIC = b"PCKV"
VERSION = 2

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
        buffers.append(memoryview(contiguous.reshape(-1).view(np.uint8)))
    return segments, buffers


def serialize_module(key: CacheKey, kv) -> WireModule:
    """Flatten a :class:`ModuleKV` into a wire header + zero-copy payload
    views. Anything else raises :class:`WireError`."""
    if not isinstance(kv, ModuleKV):
        raise WireError(f"cannot serialize {type(kv).__name__} for the wire")
    named: list[tuple[str, np.ndarray]] = [("positions", kv.positions)]
    for i, (k, v) in enumerate(zip(kv.keys, kv.values)):
        named.append((f"keys{i}", k.swapaxes(-2, -1)))
        named.append((f"values{i}", v))
    segments, buffers = _segment_views(named)
    checksum = hashlib.sha256()
    for buf in buffers:
        checksum.update(buf)
    meta = {
        "schema": key.schema,
        "module": key.module,
        "variant": key.variant,
        "kind": _RAW_KIND,
        "segments": segments,
        "total_bytes": sum(len(b) for b in buffers),
        "checksum": checksum.hexdigest(),
        "key_layout": KEY_LAYOUT,
    }
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
    """Rebuild the :class:`ModuleKV` from META + assembled payload bytes.

    Verifies the payload kind, the key layout and the checksum, then
    builds NumPy views over the payload buffer (zero-copy when ``payload``
    is a writable bytearray).
    """
    if meta.get("kind") != _RAW_KIND:
        raise WireError(f"unsupported payload kind {meta.get('kind')!r}")
    if meta.get("key_layout") != KEY_LAYOUT:
        raise WireError(f"unsupported key layout {meta.get('key_layout')!r}")
    declared = int(meta["total_bytes"])
    if len(payload) != declared:
        raise WireError(
            f"payload is {len(payload)} bytes, header declared {declared}"
        )
    checksum = hashlib.sha256(payload).hexdigest()
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
    n_layers = sum(1 for name in arrays if name.startswith("keys"))
    return ModuleKV(
        keys=[arrays[f"keys{i}"].swapaxes(-2, -1) for i in range(n_layers)],
        values=[arrays[f"values{i}"] for i in range(n_layers)],
        positions=positions,
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

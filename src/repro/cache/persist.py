"""Disk persistence for encoded prompt modules.

Encoding a module costs a full prefill of its text; serving systems want
those states to survive restarts. ``save_store`` writes a
:class:`~repro.cache.storage.ModuleCacheStore`'s entries to a directory
in one format (v2): each raw module's layer-major key/value arenas as
plain ``.npy`` payloads that a reader can ``np.memmap`` — the key file is
the key arena's own memory, ``(n_layers, n_kv_heads, head_dim, T)``,
which the record labels ``key_layout``, and each file's record says
where its data sits (``shape``, ``dtype``, ``offset``) — and an
``index.json`` naming them — every file written under a temporary name
and renamed into place.

It is the only format read: a record of any kind but ``arena``, or
lacking any field ``save_store`` writes for it (a digest, a sparse
digest, an offset, the ``key_layout`` label), is refused like a corrupt
file, and an index of any other version is refused whole.

A snapshot is read two ways:

- **The catalog** (the serving path): ``ModuleCacheStore(snapshot_dir=)``
  indexes the records with :func:`snapshot_catalog` — O(index), no payload
  opened — and pages one in on demand with :func:`load_catalog_entry`,
  which maps its arenas read-only. N same-host workers on one directory
  page against one resident copy (the paper's §3.4 CPU-memory
  accounting). This is the only path that maps a snapshot.
- **``load_store``**, an eager private copy checked against full digests.

Integrity: ``index.json`` records a full SHA-256 per payload file plus a
**sparse** digest over the file size, head block, and evenly sampled
64 KiB blocks. ``load_store`` checks the full digest; a page-in checks the
sparse one (cheap — a handful of blocks, not the whole payload), and
:meth:`~repro.cache.storage.ModuleCacheStore.verify_catalog` full-hashes
every cataloged payload, attached and spilled, with
:func:`catalog_entry_fault`. Corrupt, truncated, or missing files are
skipped with a warning instead of raising mid-load — one bad file costs
one module (a re-encode), not the whole snapshot.

Every read goes through **one descriptor per payload file**
(:func:`_open_verified`): ``open`` once, ``fstat`` and hash *that
descriptor*, then read or ``np.memmap`` it — never the path again, so the
bytes that were checked are the bytes that are mapped even when another
worker renames a new file over the name in between (``_write_atomic``
allows exactly that).

A page-in takes a :class:`VerifyLedger`: once a file's sparse digest
has matched, the ``fstat`` state it matched at — ``(st_dev, st_ino,
st_size, st_mtime_ns, st_ctime_ns)`` — is remembered, and a later page-in
whose descriptor shows exactly that state maps it without hashing. Any
difference re-hashes; a mismatch refuses the record as before. What the
ledger never trusts: a state it has not itself hashed in this process (a
record's first page-in always hashes), and a file whose ctime is younger
than ``_RACY_MARGIN_NS`` — a later write inside the same timestamp tick
would leave the state unchanged (git's "racily clean" rule), so such a
file is hashed on every page-in until it has aged. Digest values and
sampling are exactly what ``save_store`` recorded; nothing about the
ledger is ever written to disk.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import mmap as _mmap
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.llm.kv import KEY_LAYOUT, ModuleKV

if TYPE_CHECKING:  # the store pages in through this module: import at use
    from repro.cache.storage import CacheKey, ModuleCacheStore

_INDEX = "index.json"
SNAPSHOT_VERSION = 2

# Sparse-digest sampling: head block + this many evenly spaced blocks.
_SPARSE_BLOCK = 64 * 1024
_SPARSE_SAMPLES = 8

# A matched digest is remembered only for a file whose ctime is at least
# this old. Timestamps are written at the granularity of the file system
# (1 ns–10 ms on ext4/xfs/tmpfs, 1 s on ext3, 2 s on FAT — the coarsest in
# use), and a write landing in the same tick as the verified ctime would
# leave the remembered state unchanged. One fixed margin at the coarsest
# granularity makes that impossible on any of them.
_RACY_MARGIN_NS = 2_000_000_000
_wall_clock_ns = time.time_ns  # what file timestamps are compared against

_ARENA_KIND = "arena"


def _safe_stem(key: CacheKey) -> str:
    return f"{key.schema}__{key.module}__{key.variant}".replace("/", "_")


def _sha256(fd: int) -> str:
    digest = hashlib.sha256()
    offset = 0
    while block := os.pread(fd, 1 << 20, offset):
        digest.update(block)
        offset += len(block)
    return digest.hexdigest()


def _sparse_sha256(fd: int) -> str:
    """Digest of the file size + head block + evenly sampled blocks.

    Touches at most ``(_SPARSE_SAMPLES + 1) * _SPARSE_BLOCK`` bytes, so a
    page-in can sanity-check a payload (length, npy header, a spread of
    pages) without reading it whole. Truncation and most corruption
    patterns are caught; the full digest is the store's
    ``verify_catalog``. A page-in runs this on the descriptor it goes on
    to map: one ``pread`` per block, no buffered-reader round trips.
    """
    size = os.fstat(fd).st_size
    digest = hashlib.sha256(str(size).encode())
    offsets = {0}
    if size > _SPARSE_BLOCK:
        span = size - _SPARSE_BLOCK
        offsets.update(
            [(span * i) // (_SPARSE_SAMPLES - 1) for i in range(_SPARSE_SAMPLES)]
        )
    for offset in sorted(offsets):
        digest.update(os.pread(fd, _SPARSE_BLOCK, offset))
    return digest.hexdigest()


def _write_atomic(path: Path, write) -> dict:
    """Run ``write(handle)`` into a temporary sibling of ``path``, digest
    what it wrote, then ``os.replace`` it into place; returns the file's
    index record.

    Workers that attach one snapshot directory between them may write the
    same (deterministic) payload at once, and a reader may have the old
    file mapped: a rename never shows either a torn file, and a mapping
    keeps the inode it was opened on."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with tmp.open("w+b") as handle:
            write(handle)
            handle.flush()
            fd = handle.fileno()
            info = {
                "file": path.name,
                "nbytes": os.fstat(fd).st_size,
                "sha256": _sha256(fd),
                "sparse_sha256": _sparse_sha256(fd),
            }
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return info


def _raw_arenas(payload: ModuleKV) -> tuple[np.ndarray, np.ndarray]:
    arena = payload.ensure_arena()
    if arena.is_arena:
        return arena.key_arena, arena.value_arena
    # Degenerate zero-layer module: persist empty 4-d arenas so the
    # loader's from_arenas path stays uniform.
    empty = np.empty((0, 0, 0, 0), dtype=np.float32)
    return empty, empty


def _save_entry(directory: Path, key: CacheKey, payload: ModuleKV) -> dict:
    """Write one entry's payload files; returns the index record's
    ``kind``/``key_layout``/``files`` fields."""
    stem = _safe_stem(key)
    key_arena, value_arena = _raw_arenas(payload)
    parts = {
        "keys": np.ascontiguousarray(key_arena.swapaxes(-2, -1)),
        "values": np.ascontiguousarray(value_arena),
        "positions": np.ascontiguousarray(payload.positions),
    }
    files = {}
    for part, array in parts.items():
        info = _write_atomic(
            directory / f"{stem}.{part}.npy",
            lambda handle, array=array: np.save(handle, array),
        )
        # Where the raw C-order data sits, so a page-in can map it
        # without re-parsing the npy header (an ``ast`` compile each).
        info["shape"] = list(array.shape)
        info["dtype"] = array.dtype.str
        info["offset"] = info["nbytes"] - array.nbytes
        files[part] = info
    return {"kind": _ARENA_KIND, "key_layout": KEY_LAYOUT, "files": files}


def _key_record(key: CacheKey) -> dict:
    return {"schema": key.schema, "module": key.module, "variant": key.variant}


def _record_key(record: dict) -> CacheKey:
    from repro.cache.storage import CacheKey

    return CacheKey(record["schema"], record["module"], record["variant"])


def write_catalog_entry(directory: str | Path, key: CacheKey, payload: ModuleKV) -> dict:
    """Write one entry's v2 payload files into ``directory`` (atomically,
    with full and sparse digests) and return the catalog record that
    :func:`load_catalog_entry` materializes it from. ``save_store`` writes
    every entry through here; the store spills a DRAM victim with
    the same call."""
    record = _key_record(key)
    record.update(_save_entry(Path(directory), key, payload))
    return record


def save_store(store: ModuleCacheStore, directory: str | Path) -> int:
    """Write every entry of both tiers to ``directory`` as a v2 snapshot;
    returns the number of modules saved.

    Payload files land first and ``index.json`` last, each through a
    temporary sibling and a rename: a save that fails part-way leaves the
    previous index whole, never a truncated one (a payload it rewrote
    fails that index's digest and is skipped, like any changed file).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    for tier_name in ("gpu", "cpu"):
        for key, entry in store.tier(tier_name).entries.items():
            record = write_catalog_entry(directory, key, entry.kv)
            record["tier"] = tier_name
            entries.append(record)
    index = json.dumps({"version": SNAPSHOT_VERSION, "entries": entries}, indent=1)
    _write_atomic(directory / _INDEX, lambda handle: handle.write(index.encode()))
    return len(entries)


def _record_tag(record: dict) -> str:
    return f"{record['schema']}/{record['module']}/{record['variant']}"


def _warn_skip(record: dict, reason: str) -> None:
    name = next(iter(record.get("files", {}).values()), {}).get("file", "<?>")
    warnings.warn(
        f"skipping {name} ({_record_tag(record)}): {reason}", stacklevel=3
    )


class _Rejected(Exception):
    """A record or payload file that must not be served; ``str()`` is the
    skip reason."""


@dataclass
class VerifyLedger:
    """One page-in's view of what a catalog record's owner has verified.

    ``states`` maps a payload file name to the ``fstat`` state at which
    its sparse digest last matched (see the module docstring for what is
    and is not remembered). The owner keeps ``states`` between page-ins —
    beside the record, under the lock the record is under — and hands each
    page-in a ledger built from it; the page-in runs outside that lock,
    leaves ``states`` as they should now be remembered, and counts the
    payload files it ``hashed``, ``trusted`` without hashing, and refused
    (``failed``: missing, mismatched or unreadable — one per refused
    record, since a page-in stops at its first bad file)."""

    states: dict[str, tuple[int, ...]] = field(default_factory=dict)
    hashed: int = 0
    trusted: int = 0
    failed: int = 0


# What ``save_store`` records for every payload file: its digests and
# where its data sits, so a page-in maps it directly.
_FILE_FIELDS = ("file", "nbytes", "sha256", "sparse_sha256", "shape", "dtype", "offset")
_ARENA_PARTS = ("keys", "values", "positions")


def _check_record(record: dict) -> None:
    """Raise :class:`_Rejected` unless ``record`` is an arena record
    carrying every field ``save_store`` writes: nothing is read, mapped or
    served on a guess about a kind, a layout, an offset or a digest.
    (Indexing, not ``dict.get``: a page-in runs this on every fetch.)"""
    try:
        if record["kind"] != _ARENA_KIND:
            raise _Rejected(f"record kind {record['kind']!r} is not {_ARENA_KIND!r}")
        if record["key_layout"] != KEY_LAYOUT:
            raise _Rejected(f"key_layout {record['key_layout']!r} is not {KEY_LAYOUT!r}")
        for part in _ARENA_PARTS:
            info = record["files"][part]
            for name in _FILE_FIELDS:
                if name not in info:
                    raise _Rejected(f"{part} record lacks {name}")
    except KeyError as missing:
        raise _Rejected(f"record lacks {missing}") from None


def _expect(label: str, expected: str, actual: str) -> None:
    if actual != expected:
        raise _Rejected(
            f"{label} mismatch (expected {expected[:12]}…, got {actual[:12]}…)"
        )


def _verify_fd(fd: int, info: dict, ledger: VerifyLedger | None) -> None:
    """Check an open payload file against its index record; raises
    :class:`_Rejected`. Without a ``ledger`` the full digest is checked.
    With one (a page-in) the sparse digest is, and only when the file's
    ``fstat`` state differs from the remembered one; a digest that matches
    is remembered unless the file is younger than ``_RACY_MARGIN_NS``."""
    if ledger is None:
        _expect("checksum", info["sha256"], _sha256(fd))
        return
    name = info["file"]
    st = os.fstat(fd)
    state = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    if ledger.states.get(name) == state:
        ledger.trusted += 1
        return
    ledger.hashed += 1
    ledger.states.pop(name, None)
    _expect("sparse checksum", info["sparse_sha256"], _sparse_sha256(fd))
    if _wall_clock_ns() - st.st_ctime_ns >= _RACY_MARGIN_NS:
        ledger.states[name] = state


def _open_verified(directory, info: dict, ledger: VerifyLedger | None):
    """Open one payload file and verify *that descriptor*; returns the
    open (unbuffered, binary) file for the caller to read or map and then
    close, or raises :class:`_Rejected`."""
    try:
        handle = open(os.path.join(directory, info["file"]), "rb", buffering=0)
    except FileNotFoundError:
        raise _Rejected("payload file missing") from None
    try:
        _verify_fd(handle.fileno(), info, ledger)
    except BaseException:
        handle.close()
        raise
    return handle


def _read_part(handle, info: dict, mmap: bool) -> np.ndarray:
    """One arena payload, from its verified descriptor, as a plain
    ``ndarray``: a read-only view of a file mapping when ``mmap``, else a
    private copy.

    The recorded shape/dtype/offset locate the data directly, with no
    npy header parsed. Mapped arrays are handed out through
    ``np.asarray`` so that slicing them downstream is ordinary ndarray
    slicing (``np.memmap.__getitem__`` re-runs ``__array_finalize__`` on
    every view); the view's ``base`` still leads to the mapping, which is
    what ``is_mapped`` follows and what keeps the mapping alive exactly as
    long as the entry (the mapping holds its own duplicate of the
    descriptor, so the caller closes ``handle`` either way)."""
    shape, dtype, offset = tuple(info["shape"]), np.dtype(info["dtype"]), info["offset"]
    count = math.prod(shape)
    if mmap and count:
        return np.asarray(
            np.memmap(handle, dtype=dtype, mode="r", offset=offset, shape=shape)
        )
    # An empty mapping is an error to mmap(2); nothing to share anyway.
    handle.seek(offset)
    return np.fromfile(handle, dtype=dtype, count=count).reshape(shape)


def _load_entry(directory, record: dict, ledger: VerifyLedger | None):
    """Build the entry payload; ``None`` after a warning for malformed
    arenas, :class:`_Rejected` for a record that lacks a field or a file
    that fails verification.

    With a ``ledger`` (a catalog page-in) the arenas are mapped and
    sparse-verified; without one (``load_store``) they are private copies
    checked against the full digest."""
    _check_record(record)
    mapped = ledger is not None
    handles: dict = {}
    try:
        for part, info in record["files"].items():
            handles[part] = _open_verified(directory, info, ledger)
        files = record["files"]
        key_arena = _read_part(handles["keys"], files["keys"], mapped).swapaxes(-2, -1)
        value_arena = _read_part(handles["values"], files["values"], mapped)
        # Positions are tiny and hot (every splice reads them) — always eager.
        positions = _read_part(handles["positions"], files["positions"], False)
    finally:
        for handle in handles.values():
            handle.close()
    if key_arena.ndim != 4 or value_arena.shape != key_arena.shape:
        _warn_skip(record, f"malformed arena shapes {key_arena.shape}/{value_arena.shape}")
        return None
    if key_arena.shape[0] == 0:
        return ModuleKV(keys=[], values=[], positions=positions)
    return ModuleKV.from_arenas(key_arena, value_arena, positions)


def _load_or_skip(load, directory, record: dict, *args):
    """``load(directory, record, *args)``, or ``None`` after a warning
    when the payload is rejected or unreadable — the caller re-encodes
    the module."""
    try:
        return load(directory, record, *args)
    except _Rejected as exc:
        _warn_skip(record, str(exc))
    except (OSError, ValueError, KeyError) as exc:
        # A verified file can still fail to read (an I/O error, or a
        # recorded layout its file does not hold); degrade to a skip.
        _warn_skip(record, f"unreadable payload ({type(exc).__name__}: {exc})")
    return None


def _index_entries(directory: Path) -> list[dict]:
    index = json.loads((directory / _INDEX).read_text())
    version = index.get("version") if isinstance(index, dict) else None
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version} in {directory / _INDEX}"
        )
    return index["entries"]


def load_store(
    directory: str | Path, store: ModuleCacheStore | None = None
) -> ModuleCacheStore:
    """Copy a snapshot into ``store``'s private memory, checking every
    payload's full digest.

    A serving store reads a snapshot through its catalog instead
    (``ModuleCacheStore(snapshot_dir=)``); this is the eager reader.
    Corrupt, truncated, or missing payload files, and records lacking a
    field ``save_store`` writes, are skipped with a warning (the module
    simply re-encodes on first use); only a missing, unreadable or
    other-version ``index.json`` raises.
    """
    from repro.cache.storage import ModuleCacheStore

    directory = Path(directory)
    store = store or ModuleCacheStore()
    for record in _index_entries(directory):
        kv = _load_or_skip(_load_entry, directory, record, None)
        if kv is None:
            continue
        store.put(_record_key(record), kv, tier=record["tier"])
    return store


def snapshot_catalog(directory: str | Path) -> dict[CacheKey, dict]:
    """Index a snapshot: the records a store's catalog pages in, one at a
    time, with :func:`load_catalog_entry`. Opens ``index.json`` and no
    payload file."""
    return {_record_key(record): record for record in _index_entries(Path(directory))}


def catalog_entry_nbytes(record: dict) -> int:
    """On-disk payload bytes of one catalog record (prefetch budgeting)."""
    return sum(info.get("nbytes", 0) for info in record.get("files", {}).values())


def load_catalog_entry(directory: str | Path, record: dict, *, ledger: VerifyLedger):
    """Materialize one catalog record, its arenas mapped read-only and its
    files checked through ``ledger`` (an unchanged file is hashed once);
    ``None`` (after a warning) when the payload is corrupt, truncated, or
    missing — the caller re-encodes."""
    kv = _load_or_skip(_load_entry, os.fspath(directory), record, ledger)
    if kv is None:
        ledger.failed += 1
    return kv


def catalog_entry_fault(directory: str | Path, record: dict) -> str | None:
    """Check one catalog record for every field ``save_store`` writes and
    each of its payload files against its full SHA-256: ``None`` when all
    hold, else what failed and why."""
    try:
        _check_record(record)
    except _Rejected as reason:
        return str(reason)
    for info in record["files"].values():
        try:
            _open_verified(os.fspath(directory), info, None).close()
        except _Rejected as reason:
            return f"{info['file']}: {reason}"
        except OSError as exc:
            return f"{info['file']}: unreadable ({type(exc).__name__}: {exc})"
    return None


def _base_memmap(array: np.ndarray) -> np.memmap | None:
    seen = array
    while isinstance(seen, np.ndarray):
        if isinstance(seen, np.memmap):
            return seen
        seen = seen.base
    return None


def _resident_bytes(array: np.memmap) -> int | None:
    """Pages of ``array`` currently resident, via ``mincore(2)``.

    Best-effort: returns ``None`` on platforms without mincore or when the
    probe fails — callers fall back to "unknown" rather than guessing.
    """
    length = int(array.nbytes)
    if length == 0:
        return 0
    page = _mmap.PAGESIZE
    address = array.ctypes.data
    aligned = address - (address % page)
    length += address - aligned
    n_pages = (length + page - 1) // page
    vec = (ctypes.c_ubyte * n_pages)()
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        rc = libc.mincore(
            ctypes.c_void_p(aligned), ctypes.c_size_t(length), vec
        )
    except (OSError, AttributeError):
        return None
    if rc != 0:
        return None
    return sum(b & 1 for b in vec) * page


def resident_snapshot_bytes(store: ModuleCacheStore) -> int | None:
    """Bytes of mapped snapshot payloads actually paged in right now.

    The gap between :meth:`ModuleCacheStore.mapped_bytes` and this number
    is what no reader of those files has faulted in yet. ``None`` when the
    platform cannot report residency.
    """
    total = 0
    seen: set[int] = set()
    for tier in (store.gpu, store.cpu):
        for key in tier.keys():  # read beside a serving thread: no live view
            entry = tier.peek(key)
            kv = entry.kv if entry is not None else None
            if not getattr(kv, "is_mapped", False):
                continue
            for arena in (kv.key_arena, kv.value_arena):
                if arena is None:
                    continue
                mapped = _base_memmap(arena)
                if mapped is None or id(mapped) in seen:
                    continue
                seen.add(id(mapped))
                resident = _resident_bytes(mapped)
                if resident is None:
                    return None
                total += resident
    return total


def observe_residency(store: ModuleCacheStore, metrics) -> int | None:
    """Export the current mapped/resident byte gauges to ``metrics``."""
    metrics.gauge(
        "snapshot_mapped_bytes",
        "Bytes of module KV served from the shared snapshot mapping",
    ).set(store.mapped_bytes())
    resident = resident_snapshot_bytes(store)
    if resident is not None:
        metrics.gauge(
            "snapshot_resident_bytes",
            "Mapped snapshot bytes currently paged into memory",
        ).set(resident)
    return resident

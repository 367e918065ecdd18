"""Disk persistence for encoded prompt modules.

Encoding a module costs a full prefill of its text; serving systems want
those states to survive restarts. ``save_store`` writes a
:class:`~repro.cache.storage.ModuleCacheStore`'s entries to a directory
in one format (v2): each raw module's layer-major key/value arenas as
plain ``.npy`` payloads that a reader can ``np.memmap`` — the key file is
the key arena's own memory, ``(n_layers, n_kv_heads, head_dim, T)``,
which the record labels ``key_layout`` (a record without the label, or a
v1 one, is copied into that layout when read) — codec-compressed
entries in an npz container (their tensors are rebuilt on decode anyway),
and an ``index.json`` naming them — every file written under a temporary
name and renamed into place.

A snapshot is read two ways:

- **The catalog** (the serving path): ``ModuleCacheStore(snapshot_dir=)``
  indexes the records with :func:`snapshot_catalog` — O(index), no payload
  opened — and pages one in on demand with :func:`load_catalog_entry`,
  which maps its arenas read-only. N same-host workers on one directory
  page against one resident copy (the paper's §3.4 CPU-memory
  accounting). This is the only path that maps a snapshot.
- **``load_store``**, an eager private copy checked against full digests.
  It also reads the retired v1 layout (a bare record list and one npz
  archive per entry), so ``save_store(load_store(old), new)`` upgrades a
  v1 directory; nothing writes v1 any more.

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
from zipfile import BadZipFile

import numpy as np

from repro.cache.compress import CompressedModuleKV
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


@dataclass
class SaveReport:
    """What a snapshot actually contains. ``skipped`` counts entries that
    hold non-persistable payloads (simulator stand-ins) — a nonzero value
    means the snapshot is partial, which operators need to know before
    trusting a restore."""

    saved: int = 0
    skipped: int = 0
    skipped_keys: list[str] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return self.skipped > 0

    def summary(self) -> str:
        if not self.skipped:
            return f"saved {self.saved} module(s)"
        return (
            f"saved {self.saved} module(s); skipped {self.skipped} "
            f"non-persistable entr{'y' if self.skipped == 1 else 'ies'} "
            f"({', '.join(self.skipped_keys)})"
        )


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


def _save_npz(handle, payload: CompressedModuleKV) -> None:
    """Write a codec-compressed entry's tensors as one npz archive."""
    arrays = {"positions": payload.positions}
    for field_name, tensors in payload.payload.items():
        for i, tensor in enumerate(tensors):
            arrays[f"{field_name}{i}"] = tensor
    np.savez_compressed(handle, **arrays)


def _save_entry_v2(directory: Path, key: CacheKey, payload) -> dict:
    """Write one entry's payload files; returns the index record's
    ``kind``/``files`` fields."""
    stem = _safe_stem(key)
    if isinstance(payload, ModuleKV):
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
    info = _write_atomic(
        directory / f"{stem}.npz", lambda handle: _save_npz(handle, payload)
    )
    return {"kind": payload.codec, "files": {"payload": info}}


def _key_record(key: CacheKey) -> dict:
    return {"schema": key.schema, "module": key.module, "variant": key.variant}


def _record_key(record: dict) -> CacheKey:
    from repro.cache.storage import CacheKey

    return CacheKey(record["schema"], record["module"], record["variant"])


def write_catalog_entry(directory: str | Path, key: CacheKey, payload) -> dict:
    """Write one entry's v2 payload files into ``directory`` (atomically,
    with full and sparse digests) and return the catalog record that
    :func:`load_catalog_entry` materializes it from. ``save_store`` writes
    every entry through here; the store spills a DRAM victim with
    the same call."""
    record = _key_record(key)
    record.update(_save_entry_v2(Path(directory), key, payload))
    return record


def save_store(store: ModuleCacheStore, directory: str | Path) -> SaveReport:
    """Write every entry of both tiers to ``directory`` as a v2 snapshot.

    Payload files land first and ``index.json`` last, each through a
    temporary sibling and a rename: a save that fails part-way leaves the
    previous index whole, never a truncated one (a payload it rewrote
    fails that index's digest and is skipped, like any changed file).
    Returns a
    :class:`SaveReport`; check ``report.partial`` to detect entries
    (simulator stand-ins) that could not be serialized.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    report = SaveReport()
    for tier_name in ("gpu", "cpu"):
        tier = store.tier(tier_name)
        for key, entry in tier.entries.items():
            payload = entry.kv
            if not isinstance(payload, (ModuleKV, CompressedModuleKV)):
                # Simulator stand-ins carry no tensors; record the gap so
                # a partial snapshot is distinguishable from a full one.
                report.skipped += 1
                report.skipped_keys.append(key.tag())
                continue
            record = write_catalog_entry(directory, key, payload)
            record["tier"] = tier_name
            record["pinned"] = entry.pinned
            entries.append(record)
            report.saved += 1
    index = json.dumps({"version": SNAPSHOT_VERSION, "entries": entries}, indent=1)
    _write_atomic(directory / _INDEX, lambda handle: handle.write(index.encode()))
    if report.partial:
        warnings.warn(f"partial snapshot: {report.summary()}", stacklevel=2)
    return report


def _record_tag(record: dict) -> str:
    return f"{record['schema']}/{record['module']}/{record['variant']}"


def _warn_skip(record: dict, reason: str) -> None:
    name = record.get("file") or next(
        (f["file"] for f in record.get("files", {}).values()), "<?>"
    )
    warnings.warn(
        f"skipping {name} ({_record_tag(record)}): {reason}", stacklevel=3
    )


def _load_npz(handle, record: dict):
    with np.load(handle) as data:
        positions = data["positions"]
        if record["kind"] == "raw":
            n_layers = sum(1 for name in data.files if name.startswith("keys"))
            if n_layers == 0:
                return ModuleKV(keys=[], values=[], positions=positions)
            return ModuleKV.from_arenas(
                np.stack([data[f"keys{i}"] for i in range(n_layers)]),
                np.stack([data[f"values{i}"] for i in range(n_layers)]),
                positions,
            )
        payload: dict[str, list[np.ndarray]] = {}
        fields = [n for n in data.files if n != "positions"]
        # Layer order must survive the archive: sort by (field, i).
        fields.sort(
            key=lambda n: (n.rstrip("0123456789"), int(n[len(n.rstrip("0123456789")):]))
        )
        for name in fields:
            field_name = name.rstrip("0123456789")
            payload.setdefault(field_name, []).append(data[name])
        return CompressedModuleKV(
            codec=record["kind"], payload=payload, positions=positions
        )


class _Rejected(Exception):
    """A payload file that must not be served; ``str()`` is the skip
    reason."""


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


def _expect(label: str, expected: str | None, actual: str) -> None:
    if expected is not None and actual != expected:
        raise _Rejected(
            f"{label} mismatch (expected {expected[:12]}…, got {actual[:12]}…)"
        )


def _verify_fd(fd: int, info: dict, ledger: VerifyLedger | None) -> None:
    """Check an open payload file against its index record; raises
    :class:`_Rejected`. Without a ``ledger`` the full digest is checked.
    With one (a page-in) the sparse digest is, and only when the file's
    ``fstat`` state differs from the remembered one; a digest that matches
    is remembered unless the file is younger than ``_RACY_MARGIN_NS``."""
    if ledger is None or "sparse_sha256" not in info:
        _expect("checksum", info.get("sha256"), _sha256(fd))
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


def _npy_layout(handle) -> tuple[tuple[int, ...], np.dtype, int]:
    """``(shape, dtype, data offset)`` parsed from an npy header — only
    for a record written before the index kept them."""
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        raise ValueError(f"unsupported npy version {version}")
    if fortran:
        raise ValueError("fortran-order arena payload")
    return shape, dtype, handle.tell()


def _read_part(handle, info: dict, mmap: bool) -> np.ndarray:
    """One arena payload, from its verified descriptor, as a plain
    ``ndarray``: a read-only view of a file mapping when ``mmap``, else a
    private copy.

    The recorded shape/dtype/offset locate the data directly; a record
    written before they were kept falls back to parsing the npy header.
    Mapped arrays are handed out through ``np.asarray`` so that slicing
    them downstream is ordinary ndarray slicing (``np.memmap.__getitem__``
    re-runs ``__array_finalize__`` on every view); the view's ``base``
    still leads to the mapping, which is what ``is_mapped`` follows and
    what keeps the mapping alive exactly as long as the entry (the mapping
    holds its own duplicate of the descriptor, so the caller closes
    ``handle`` either way)."""
    if "offset" in info:
        shape, dtype = tuple(info["shape"]), np.dtype(info["dtype"])
        offset = info["offset"]
    else:
        shape, dtype, offset = _npy_layout(handle)
    count = math.prod(shape)
    if mmap and count:
        return np.asarray(
            np.memmap(handle, dtype=dtype, mode="r", offset=offset, shape=shape)
        )
    # An empty mapping is an error to mmap(2); nothing to share anyway.
    handle.seek(offset)
    return np.fromfile(handle, dtype=dtype, count=count).reshape(shape)


def _load_entry_v2(directory, record: dict, ledger: VerifyLedger | None):
    """Build the entry payload; ``None`` after a warning for malformed
    arenas, :class:`_Rejected` for a file that fails verification.

    With a ``ledger`` (a catalog page-in) the arenas are mapped and
    sparse-verified; without one (``load_store``) they are private copies
    checked against the full digest."""
    mapped = ledger is not None
    handles: dict = {}
    try:
        for part, info in record["files"].items():
            handles[part] = _open_verified(directory, info, ledger)
        if record["kind"] != _ARENA_KIND:
            return _load_npz(handles["payload"], record)
        files = record["files"]
        key_arena = _read_part(handles["keys"], files["keys"], mapped)
        if record.get("key_layout") == KEY_LAYOUT:
            key_arena = key_arena.swapaxes(-2, -1)
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


def _load_entry_v1(directory: Path, record: dict):
    info = {"file": record["file"], "sha256": record.get("sha256")}
    with _open_verified(directory, info, None) as handle:
        return _load_npz(handle, record)


def _load_or_skip(load, directory, record: dict, *args):
    """``load(directory, record, *args)``, or ``None`` after a warning
    when the payload is rejected or unreadable — the caller re-encodes
    the module."""
    try:
        return load(directory, record, *args)
    except _Rejected as exc:
        _warn_skip(record, str(exc))
    except (OSError, ValueError, KeyError, BadZipFile) as exc:
        # A pre-checksum snapshot (no digest fields) can still present
        # a truncated or garbled payload; degrade to a skip.
        _warn_skip(record, f"unreadable payload ({type(exc).__name__}: {exc})")
    return None


def _index_entries(directory: Path) -> tuple[int, list[dict]]:
    index = json.loads((directory / _INDEX).read_text())
    if isinstance(index, list):  # v1 wrote a bare record list
        return 1, index
    version = int(index.get("version", 0))
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version} in {directory / _INDEX}"
        )
    return version, index["entries"]


def load_store(
    directory: str | Path, store: ModuleCacheStore | None = None
) -> ModuleCacheStore:
    """Copy a snapshot (v2, or a v1 one written by an earlier version) into
    ``store``'s private memory, checking every payload's full digest.

    A serving store reads a snapshot through its catalog instead
    (``ModuleCacheStore(snapshot_dir=)``); this is the eager reader — and
    with ``save_store`` the upgrader for a v1 directory. Corrupt,
    truncated, or missing payload files are skipped with a warning (the
    module simply re-encodes on first use); only a missing or unreadable
    ``index.json`` raises.
    """
    from repro.cache.storage import ModuleCacheStore

    directory = Path(directory)
    store = store or ModuleCacheStore()
    version, entries = _index_entries(directory)
    for record in entries:
        if version == 1:
            kv = _load_or_skip(_load_entry_v1, directory, record)
        else:
            kv = _load_or_skip(_load_entry_v2, directory, record, None)
        if kv is None:
            continue
        store.put(_record_key(record), kv, tier=record["tier"], pinned=record["pinned"])
    return store


def snapshot_catalog(directory: str | Path) -> dict[CacheKey, dict]:
    """Index a v2 snapshot: the records a store's catalog pages in, one
    at a time, with :func:`load_catalog_entry`. Opens ``index.json`` and no
    payload file. A v1 snapshot is refused — its archives cannot be
    mapped; upgrade it with ``save_store(load_store(old), new)``.
    """
    directory = Path(directory)
    version, entries = _index_entries(directory)
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"the snapshot tier needs a v{SNAPSHOT_VERSION} snapshot; "
            f"{directory} is v{version}"
        )
    return {_record_key(record): record for record in entries}


def catalog_entry_nbytes(record: dict) -> int:
    """On-disk payload bytes of one catalog record (prefetch budgeting)."""
    return sum(info.get("nbytes", 0) for info in record.get("files", {}).values())


def load_catalog_entry(directory: str | Path, record: dict, *, ledger: VerifyLedger):
    """Materialize one catalog record, its arenas mapped read-only and its
    files checked through ``ledger`` (an unchanged file is hashed once);
    ``None`` (after a warning) when the payload is corrupt, truncated, or
    missing — the caller re-encodes."""
    kv = _load_or_skip(_load_entry_v2, os.fspath(directory), record, ledger)
    if kv is None:
        ledger.failed += 1
    return kv


def catalog_entry_fault(directory: str | Path, record: dict) -> str | None:
    """Check every payload file of one catalog record against its full
    SHA-256: ``None`` when all match, else which file failed and why."""
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

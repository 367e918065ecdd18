"""Disk persistence for encoded prompt modules.

Encoding a module costs a full prefill of its text; serving systems want
those states to survive restarts. ``save_store``/``load_store`` round-trip
a :class:`~repro.cache.storage.ModuleCacheStore`'s entries through disk.

Two snapshot formats coexist:

- **v1** (``format="v1"``): one ``savez_compressed`` archive per entry.
  Compact, but a restore decompresses and copies every byte before the
  first request can be served — O(total KV bytes) warm start.
- **v2** (default): each raw module's layer-major key/value arenas are
  written as plain aligned ``.npy`` payloads, so a restore can
  ``np.memmap`` them — warm start becomes O(index) with lazy page-in,
  and N same-host workers that attach the same snapshot share one
  resident copy of the pages (the paper's §3.4 CPU-memory accounting).
  Codec-compressed entries keep the npz container (their tensors are
  rebuilt on decode anyway).

Integrity: ``index.json`` records a full SHA-256 per payload file plus a
**sparse** digest over the file size, head block, and evenly sampled
64 KiB blocks. Eager loads verify the full digest; mapped attaches verify
the sparse digest up front (cheap — it pages in a handful of blocks, not
the whole snapshot) and delegate the full digest to a background sweep
(:class:`DigestSweep`) that drops entries failing verification. Corrupt,
truncated, or missing files are skipped with a warning instead of raising
mid-load — one bad file costs one module (a re-encode), not the whole
snapshot.

Every read goes through **one descriptor per payload file**
(:func:`_open_verified`): ``open`` once, ``fstat`` and hash *that
descriptor*, then read or ``np.memmap`` it — never the path again, so the
bytes that were checked are the bytes that are mapped even when another
worker renames a new file over the name in between (``_write_atomic``
allows exactly that).

A caller that pages the same record in again and again (the store's
snapshot tier) passes a :class:`VerifyLedger`: once a file's sparse digest
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
from repro.llm.kv import ModuleKV

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


def _entry_path(directory: Path, key: CacheKey) -> Path:
    return directory / f"{_safe_stem(key)}.npz"


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
    mapped attach can sanity-check every payload (length, npy header, a
    spread of pages) without paging the whole snapshot in. Truncation and
    most corruption patterns are caught; the full digest still runs in the
    background sweep. A page-in runs this on the descriptor it goes on to
    map: one ``pread`` per block, no buffered-reader round trips.
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


def _save_entry_v1(path, payload) -> str:
    """Write one npz archive to ``path`` (a path or an open binary file)."""
    if isinstance(payload, ModuleKV):
        arrays = {"positions": payload.positions}
        for i, (k, v) in enumerate(zip(payload.keys, payload.values)):
            arrays[f"keys{i}"] = k
            arrays[f"values{i}"] = v
        np.savez_compressed(path, **arrays)
        return "raw"
    arrays = {"positions": payload.positions}
    for field_name, tensors in payload.payload.items():
        for i, tensor in enumerate(tensors):
            arrays[f"{field_name}{i}"] = tensor
    np.savez_compressed(path, **arrays)
    return payload.codec


def _save_entry_v2(directory: Path, key: CacheKey, payload) -> dict:
    """Write one entry's payload files; returns the index record's
    ``kind``/``files`` fields."""
    stem = _safe_stem(key)
    if isinstance(payload, ModuleKV):
        key_arena, value_arena = _raw_arenas(payload)
        parts = {
            "keys": np.ascontiguousarray(key_arena),
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
        return {"kind": _ARENA_KIND, "files": files}
    info = _write_atomic(
        directory / f"{stem}.npz", lambda handle: _save_entry_v1(handle, payload)
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


def save_store(
    store: ModuleCacheStore, directory: str | Path, *, format: str = "v2"
) -> SaveReport:
    """Write every entry of both tiers to ``directory``.

    ``format="v2"`` (default) stores raw modules as memmap-ready ``.npy``
    arena payloads; ``format="v1"`` keeps the legacy one-npz-per-entry
    layout. Returns a :class:`SaveReport`; check ``report.partial`` to
    detect entries (simulator stand-ins) that could not be serialized.
    """
    if format not in ("v1", "v2"):
        raise ValueError(f"unknown snapshot format {format!r}; expected 'v1' or 'v2'")
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
            if format == "v1":
                path = _entry_path(directory, key)
                record = _key_record(key)
                record["kind"] = _save_entry_v1(path, payload)
                record["file"] = path.name
                with open(path, "rb") as handle:
                    record["sha256"] = _sha256(handle.fileno())
            else:
                record = write_catalog_entry(directory, key, payload)
            record["tier"] = tier_name
            record["pinned"] = entry.pinned
            entries.append(record)
            report.saved += 1
    if format == "v1":
        index: object = entries
    else:
        index = {"version": SNAPSHOT_VERSION, "entries": entries}
    (directory / _INDEX).write_text(json.dumps(index, indent=1))
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


def _verify_fd(fd: int, info: dict, verify: str, ledger: VerifyLedger | None) -> None:
    """Check an open payload file against its index record; raises
    :class:`_Rejected`. With a ``ledger``, a sparse check whose ``fstat``
    state equals the remembered one is trusted without hashing, and a
    digest that matches is remembered unless the file is younger than
    ``_RACY_MARGIN_NS``."""
    if verify == "off":
        return
    if verify != "sparse" or "sparse_sha256" not in info:
        _expect("checksum", info.get("sha256"), _sha256(fd))
        return
    if ledger is None:
        _expect("sparse checksum", info["sparse_sha256"], _sparse_sha256(fd))
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


def _open_verified(
    directory, info: dict, verify: str, ledger: VerifyLedger | None = None
):
    """Open one payload file and verify *that descriptor*; returns the
    open (unbuffered, binary) file for the caller to read or map and then
    close, or raises :class:`_Rejected`."""
    try:
        handle = open(os.path.join(directory, info["file"]), "rb", buffering=0)
    except FileNotFoundError:
        raise _Rejected("payload file missing") from None
    try:
        _verify_fd(handle.fileno(), info, verify, ledger)
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


def _load_entry_v2(
    directory,
    record: dict,
    mmap: bool,
    verify: str,
    ledger: VerifyLedger | None = None,
):
    """Build the entry payload; ``None`` after a warning for malformed
    arenas, :class:`_Rejected` for a file that fails verification."""
    handles: dict = {}
    try:
        for part, info in record["files"].items():
            handles[part] = _open_verified(directory, info, verify, ledger)
        if record["kind"] != _ARENA_KIND:
            return _load_npz(handles["payload"], record)
        files = record["files"]
        key_arena = _read_part(handles["keys"], files["keys"], mmap)
        value_arena = _read_part(handles["values"], files["values"], mmap)
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


def _load_entry_v1(directory: Path, record: dict, verify: str):
    info = {"file": record["file"], "sha256": record.get("sha256")}
    with _open_verified(directory, info, "off" if verify == "off" else "full") as handle:
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
    directory: str | Path,
    store: ModuleCacheStore | None = None,
    *,
    mmap: bool = False,
    verify: str | None = None,
) -> ModuleCacheStore:
    """Rebuild a store from :func:`save_store` output (either format).

    ``mmap=True`` maps v2 arena payloads read-only instead of copying them
    into private memory — the zero-copy warm start. ``verify`` is
    ``"full"``, ``"sparse"``, or ``"off"``; it defaults to ``"full"`` for
    eager loads and ``"sparse"`` for mapped ones (pair mapped loads with a
    :class:`DigestSweep`, as :func:`attach_snapshot` does, to keep full
    coverage). Corrupt, truncated, or missing payload files are skipped
    with a warning (the module simply re-encodes on first use); only a
    missing or unreadable ``index.json`` raises.
    """
    from repro.cache.storage import ModuleCacheStore

    directory = Path(directory)
    store = store or ModuleCacheStore()
    if verify is None:
        verify = "sparse" if mmap else "full"
    if verify not in ("full", "sparse", "off"):
        raise ValueError(f"unknown verify mode {verify!r}")
    version, entries = _index_entries(directory)
    for record in entries:
        key = _record_key(record)
        if version == 1:
            kv = _load_or_skip(_load_entry_v1, directory, record, verify)
        else:
            kv = _load_or_skip(_load_entry_v2, directory, record, mmap, verify)
        if kv is None:
            continue
        store.put(key, kv, tier=record["tier"], pinned=record["pinned"])
    return store


def snapshot_catalog(directory: str | Path) -> dict[CacheKey, dict]:
    """Index a v2 snapshot for lazy per-entry attach.

    Where :func:`attach_snapshot` maps every entry up front, the module
    store treats the snapshot as a cold *tier*: it indexes the records now
    and materializes individual entries on demand with
    :func:`load_catalog_entry`. Only v2 snapshots qualify — v1 archives
    cannot be mapped and would silently degrade the tier to eager loads.
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


def load_catalog_entry(
    directory: str | Path,
    record: dict,
    *,
    mmap: bool = True,
    verify: str = "sparse",
    ledger: VerifyLedger | None = None,
):
    """Materialize one catalog record; ``None`` (after a warning) when the
    payload is corrupt, truncated, or missing — the caller re-encodes.
    A caller that pages the record in repeatedly passes a
    :class:`VerifyLedger` so an unchanged file is hashed once."""
    kv = _load_or_skip(
        _load_entry_v2, os.fspath(directory), record, mmap, verify, ledger
    )
    if kv is None and ledger is not None:
        ledger.failed += 1
    return kv


class DigestSweep(threading.Thread):
    """Background full-digest verification of a mapped snapshot.

    A mapped attach only verifies sparse digests eagerly; this daemon
    re-reads every payload file, checks the full SHA-256, and **removes**
    entries whose files fail (the module re-encodes on next use) so a
    worker never keeps serving from a payload the sparse probe happened to
    miss. ``join()`` it in tests; production just lets it run.
    """

    def __init__(
        self,
        directory: Path,
        store: ModuleCacheStore,
        entries: list[dict],
        metrics=None,
    ) -> None:
        super().__init__(name="snapshot-digest-sweep", daemon=True)
        self.directory = directory
        self.store = store
        self.entries = entries
        self.metrics = metrics
        self.verified = 0
        self.failures: list[str] = []

    def run(self) -> None:
        for record in self.entries:
            key = _record_key(record)
            bad = None
            for info in record.get("files", {}).values():
                try:
                    _open_verified(self.directory, info, "full").close()
                except _Rejected as reason:
                    bad = f"{info['file']}: {reason}"
                    break
            if bad is None:
                self.verified += 1
                continue
            self.failures.append(f"{_record_tag(record)} ({bad})")
            warnings.warn(
                f"background digest sweep evicting {_record_tag(record)}: {bad}",
                stacklevel=2,
            )
            for tier in (self.store.gpu, self.store.cpu):
                if key in tier:
                    tier.remove(key)
            if self.metrics is not None:
                self.metrics.counter(
                    "snapshot_verify_failures_total",
                    "Snapshot payloads failing the background full digest",
                    phase="background",
                ).inc()


@dataclass
class AttachResult:
    """Outcome of :func:`attach_snapshot`: the (shared, read-only mapped)
    store, the running background digest sweep, and how many bytes of
    module KV are mapped rather than privately resident."""

    store: ModuleCacheStore
    sweep: DigestSweep | None
    mapped_bytes: int


def attach_snapshot(
    directory: str | Path,
    store: ModuleCacheStore | None = None,
    *,
    metrics=None,
    background_verify: bool = True,
) -> AttachResult:
    """Map a v2 snapshot read-only into ``store`` — the same-host share
    mode: every worker that attaches the same directory pages against one
    resident copy of the module KV. Sparse digests are verified eagerly;
    the full digests run in a background :class:`DigestSweep` (disable
    with ``background_verify=False``).
    """
    directory = Path(directory)
    store = load_store(directory, store, mmap=True, verify="sparse")
    _, entries = _index_entries(directory)
    mapped = store.mapped_bytes()
    if metrics is not None:
        metrics.gauge(
            "snapshot_mapped_bytes",
            "Bytes of module KV served from the shared snapshot mapping",
        ).set(mapped)
        observe_residency(store, metrics)
    sweep = None
    if background_verify:
        sweep = DigestSweep(directory, store, entries, metrics=metrics)
        sweep.start()
    return AttachResult(store=store, sweep=sweep, mapped_bytes=mapped)


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
    is the lazy-page-in win: a fresh attach maps gigabytes while touching
    almost nothing. ``None`` when the platform cannot report residency.
    """
    total = 0
    seen: set[int] = set()
    for tier in (store.gpu, store.cpu):
        for entry in tier.entries.values():
            kv = entry.kv
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

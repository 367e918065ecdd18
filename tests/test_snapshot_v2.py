"""Snapshot format v2: memmap-ready arenas, the catalog that maps them, and
the full-digest sweep.

A serving store reads a snapshot only through its catalog
(``ModuleCacheStore(snapshot_dir=)``): construction opens ``index.json``
and nothing else, a page-in maps one module's payloads read-only and
bit-identically, same-host stores on one directory share the mapped
inode, and ``verify_catalog`` full-hashes every cataloged payload —
attached and spilled — dropping what rotted after its page-in without
undoing a text edit that lands mid-sweep. ``load_store`` stays the eager
private-copy reader with full digests; ``index.json`` is written by
rename, so a torn save keeps the previous snapshot readable; and the
write-guard sanitizer rejects in-place writes into mapped arenas.
"""

from __future__ import annotations

import asyncio
import builtins
import io
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizerError, install_sanitizers, uninstall_sanitizers
from repro.cache import storage
from repro.cache.engine import PromptCache
from repro.cache.persist import (
    _index_entries,
    load_store,
    observe_residency,
    resident_snapshot_bytes,
    save_store,
)
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.cluster import ClusterWorker
from repro.llm.kv import LayerKV, ModuleKV
from repro.pml import PLAIN_TEMPLATE
from repro.server.metrics import MetricsRegistry

SCHEMA = (
    '<schema name="lib"><module name="a">the quick brown fox</module>'
    '<module name="b">jumps over the lazy dog</module></schema>'
)
PROMPT = '<prompt schema="lib"><a/><b/> what happened ?</prompt>'
A, B = CacheKey("lib", "a"), CacheKey("lib", "b")


@pytest.fixture()
def pc(llama, tok):
    cache = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
    cache.register_schema(SCHEMA)
    return cache


def _module_kv(seed: int, T: int = 6) -> ModuleKV:
    rng = np.random.default_rng(seed)
    shape = (3, 2, T, 4)
    return ModuleKV.from_arenas(
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        np.arange(T, dtype=np.int64),
    )


def _kv_bytes(kv: ModuleKV) -> bytes:
    return b"".join(
        np.ascontiguousarray(a).tobytes() for a in (kv.key_arena, kv.value_arena, kv.positions)
    )


def _page_in(store: ModuleCacheStore, key: CacheKey) -> ModuleKV:
    """A demand fetch that has to go to the snapshot tier."""
    for tier in (store.gpu, store.cpu):
        if key in tier:
            tier.remove(key)
    found = store.fetch(key)
    assert found is not None and found.source == "snapshot"
    return found.entry.kv


def _flip_last_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))  # in place: a live mapping sees it


def _keys_file(directory: Path, key: CacheKey) -> Path:
    return directory / f"{key.schema}__{key.module}__{key.variant}.keys.npy"


def _mapped_file_id(array: np.ndarray) -> tuple[int, int]:
    """``(st_dev, st_ino)`` of the file ``array``'s memory is mapped from,
    as the kernel reports the mapping."""
    address = array.ctypes.data
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split()
            start, end = (int(x, 16) for x in fields[0].split("-"))
            if start <= address < end:
                major, minor = (int(x, 16) for x in fields[3].split(":"))
                return os.makedev(major, minor), int(fields[4])
    raise AssertionError(f"address {address:#x} is not mapped")


class TestV2RoundTrip:
    def test_eager_load_is_bit_identical_and_arena_backed(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        restored = load_store(tmp_path)
        for key in (A, B):
            original = pc.store.peek(key).kv
            loaded = restored.peek(key).kv
            assert loaded.is_arena and not loaded.is_mapped
            np.testing.assert_array_equal(loaded.key_arena, original.key_arena)
            np.testing.assert_array_equal(loaded.value_arena, original.value_arena)
            np.testing.assert_array_equal(loaded.positions, original.positions)

    def test_index_carries_version_and_digests(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        assert json.loads((tmp_path / "index.json").read_text())["version"] == 2
        for record in _index_entries(tmp_path):
            assert record["kind"] == "arena"
            for part in ("keys", "values", "positions"):
                info = record["files"][part]
                assert len(info["sha256"]) == 64
                assert len(info["sparse_sha256"]) == 64
                assert info["nbytes"] > 0

    def test_a_torn_index_write_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        """A save that dies part-way through writing ``index.json`` (a full
        disk, a crash) leaves the previous index whole: a store built on
        the directory meanwhile catalogs and pages in what it names."""
        store = ModuleCacheStore()
        store.put(CacheKey("s", "a"), _module_kv(1))
        save_store(store, tmp_path)
        before = (tmp_path / "index.json").read_bytes()
        store.put(CacheKey("s", "b"), _module_kv(2))

        class TornWriter:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                self._handle.flush()
                raise OSError(28, "No space left on device")

        real_open = Path.open

        def torn_open(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            if self.name.startswith("index.json") and "w" in mode:
                return TornWriter(handle)
            return handle

        monkeypatch.setattr(Path, "open", torn_open)
        with pytest.raises(OSError, match="No space"):
            save_store(store, tmp_path)
        monkeypatch.undo()
        assert (tmp_path / "index.json").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        attached = ModuleCacheStore(snapshot_dir=tmp_path)
        assert attached.fabric_snapshot()["catalog_entries"] == 1
        assert _kv_bytes(_page_in(attached, CacheKey("s", "a"))) == _kv_bytes(_module_kv(1))


class TestMappedLoad:
    def test_constructing_opens_the_index_and_no_payload(self, pc, tmp_path, monkeypatch):
        save_store(pc.store, tmp_path)
        opened: list[str] = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(os.path.basename(str(file)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        monkeypatch.undo()
        assert opened == ["index.json"]
        assert store.fabric_snapshot()["catalog_entries"] == 2
        assert store.total_bytes() == 0 and store.mapped_bytes() == 0

    def test_mmap_load_is_mapped_and_bit_identical(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        for key in (A, B):
            loaded = _page_in(store, key)
            assert loaded.is_arena and loaded.is_mapped
            assert _kv_bytes(loaded) == _kv_bytes(pc.store.peek(key).kv)

    def test_mapped_bytes_accounting(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        eager = load_store(tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        assert eager.mapped_bytes() == 0
        assert store.mapped_bytes() == 0  # cataloged, nothing paged in
        for key in (A, B):
            _page_in(store, key)
        assert store.mapped_bytes() > 0
        assert store.mapped_bytes() == store.total_bytes() == eager.total_bytes()

    def test_residency_probe_best_effort(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        _page_in(store, A)
        resident = resident_snapshot_bytes(store)
        if resident is not None:
            assert resident >= 0

    def test_mapped_serve_output_byte_identical(self, pc, tmp_path, llama, tok):
        """The acceptance bit: serving from catalog page-ins produces the
        same tokens, cached counts, and spliced states as in-memory."""
        in_memory = pc.serve(PROMPT, max_new_tokens=8)
        save_store(pc.store, tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        pc2 = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc2.register_schema(SCHEMA)  # pages the solos in: no encode
        assert store.peek(A).kv.is_mapped
        assert store.fabric_snapshot()["first_encodes"] == 0
        mapped = pc2.serve(PROMPT, max_new_tokens=8)
        assert mapped.output_ids == in_memory.output_ids
        assert mapped.text == in_memory.text
        assert mapped.cached_tokens == in_memory.cached_tokens


class TestVerification:
    def _snapshot(self, tmp_path):
        store = ModuleCacheStore()
        store.put(CacheKey("s", "a"), _module_kv(1), tier="cpu")
        store.put(CacheKey("s", "b"), _module_kv(2), tier="cpu")
        save_store(store, tmp_path)
        return store

    def _corrupt(self, tmp_path, name: str, offset: int = 200) -> None:
        path = tmp_path / name
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_corrupt_file_skipped_eager_full(self, tmp_path):
        self._snapshot(tmp_path)
        self._corrupt(tmp_path, "s__a__solo.keys.npy")
        with pytest.warns(UserWarning, match="checksum mismatch"):
            restored = load_store(tmp_path)
        assert CacheKey("s", "a") not in restored
        assert CacheKey("s", "b") in restored

    def test_corrupt_file_skipped_mapped_sparse(self, tmp_path):
        self._snapshot(tmp_path)
        self._corrupt(tmp_path, "s__a__solo.values.npy")
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        with pytest.warns(UserWarning, match="sparse checksum mismatch"):
            assert store.fetch(CacheKey("s", "a")) is None
        assert not store.snapshot_backed(CacheKey("s", "a"))
        assert store.fetch(CacheKey("s", "b")).source == "snapshot"

    def test_truncated_file_skipped(self, tmp_path):
        self._snapshot(tmp_path)
        path = tmp_path / "s__a__solo.keys.npy"
        path.write_bytes(path.read_bytes()[:64])
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        with pytest.warns(UserWarning, match="mismatch"):
            assert store.fetch(CacheKey("s", "a")) is None
        assert not store.snapshot_backed(CacheKey("s", "a"))

    def test_missing_file_skipped(self, tmp_path):
        self._snapshot(tmp_path)
        (tmp_path / "s__b__solo.positions.npy").unlink()
        with pytest.warns(UserWarning, match="payload file missing"):
            restored = load_store(tmp_path)
        assert CacheKey("s", "b") not in restored
        assert CacheKey("s", "a") in restored

    def test_background_sweep_evicts_corruption(self, tmp_path):
        self._snapshot(tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        for name in "ab":
            _page_in(store, CacheKey("s", name))
        # Corruption lands *after* the page-in — only the full sweep sees it.
        self._corrupt(tmp_path, "s__a__solo.values.npy", offset=-3)
        with pytest.warns(UserWarning, match="digest sweep dropping s/a/solo"):
            assert store.verify_catalog() == 1
        assert CacheKey("s", "a") not in store
        assert not store.snapshot_backed(CacheKey("s", "a"))
        assert CacheKey("s", "b") in store and store.snapshot_backed(CacheKey("s", "b"))
        assert store.fabric_snapshot()["verify_failed"] == 1


def _serving_engine(source, llama, tok, directory):
    """``(warm, pc)``: ``warm`` encoded the schema in memory; ``pc`` serves
    it from a store about one module a tier, whose catalog holds both
    modules — saved by ``warm`` and attached, or spilled by the store
    itself — and nothing of the schema resident."""
    warm = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
    warm.register_schema(SCHEMA)
    if source == "attached":
        save_store(warm.store, directory)
    budget = int(warm.store.total_bytes() * 0.8)
    store = ModuleCacheStore(budget, budget, snapshot_dir=directory)
    pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
    pc.register_schema(SCHEMA)
    _push_to_disk(store, warm)
    for key in (A, B):
        assert store.snapshot_backed(key) and key not in store
    return warm, pc


def _push_to_disk(store, warm, names="xyz") -> None:
    filler = warm.store.peek(B).kv
    for name in names:
        store.put(CacheKey("other", name), filler)


@pytest.mark.parametrize("source", ["attached", "spilled"])
class TestCatalogSweep:
    def test_a_record_rotting_after_its_page_in_is_dropped_and_reencoded(
        self, llama, tok, tmp_path, source
    ):
        warm, pc = _serving_engine(source, llama, tok, tmp_path)
        store = pc.store
        assert _kv_bytes(_page_in(store, A)) == _kv_bytes(warm.store.peek(A).kv)
        _flip_last_byte(_keys_file(tmp_path, A))
        with pytest.warns(UserWarning, match="digest sweep dropping lib/a/solo"):
            assert store.verify_catalog() == 1
        assert not store.snapshot_backed(A) and A not in store
        assert store.snapshot_backed(B)
        assert store.fabric_snapshot()["verify_failed"] == 1
        assert store.fetch(A) is None  # the next use encodes
        served = pc.serve('<prompt schema="lib"><a/> go</prompt>', max_new_tokens=2)
        expected = warm.serve('<prompt schema="lib"><a/> go</prompt>', max_new_tokens=2)
        assert served.output_ids == expected.output_ids
        assert store.fabric_snapshot()["reencodes"] == 1
        assert _kv_bytes(store.fetch(A).entry.kv) == _kv_bytes(warm.store.peek(A).kv)

    def test_a_record_replaced_mid_sweep_survives(
        self, llama, tok, tmp_path, monkeypatch, source
    ):
        """The module's text changes — and the new states spill to a new
        record — while the sweep hashes the old, corrupt file. The sweep
        must not drop the record that replaced the one it hashed."""
        new_text = "the quick brown dog"  # same length: b keeps its states
        warm, pc = _serving_engine(source, llama, tok, tmp_path)
        store = pc.store
        _page_in(store, A)
        _flip_last_byte(_keys_file(tmp_path, A))
        real_fault = storage.catalog_entry_fault
        edited = []

        def edit_while_hashing(directory, record):
            fault = real_fault(directory, record)
            if record["module"] == "a" and not edited:
                edited.append(fault)
                pc.update_module_text("lib", "a", new_text)
                _push_to_disk(store, warm, names="uvw")
                assert store.snapshot_backed(A)  # the new text's record
            return fault

        monkeypatch.setattr(storage, "catalog_entry_fault", edit_while_hashing)
        assert store.verify_catalog() == 0
        assert edited and edited[0] is not None  # the old file was corrupt
        assert store.snapshot_backed(A) and store.snapshot_backed(B)
        assert store.fabric_snapshot()["verify_failed"] == 0
        fresh = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        fresh.register_schema(SCHEMA.replace("the quick brown fox", new_text))
        assert _kv_bytes(_page_in(store, A)) == _kv_bytes(fresh.store.peek(A).kv)


class TestAttach:
    def test_attach_shares_one_snapshot_across_stores(self, pc, tmp_path):
        """Two stores on one directory, one fetch each: both arenas are
        mappings of the one payload inode, and what each store counts as
        mapped is exactly the payload's data bytes."""
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps to name a mapping's file")
        save_store(pc.store, tmp_path)
        first = ModuleCacheStore(snapshot_dir=tmp_path)
        second = ModuleCacheStore(snapshot_dir=tmp_path)
        record = next(r for r in _index_entries(tmp_path) if r["module"] == "a")
        payload = sum(info["nbytes"] - info["offset"] for info in record["files"].values())
        ids = set()
        for store in (first, second):
            kv = _page_in(store, A)
            assert store.mapped_bytes() == payload
            ids.add(_mapped_file_id(kv.key_arena))
        assert len(ids) == 1
        _, inode = ids.pop()
        assert inode == os.stat(_keys_file(tmp_path, A)).st_ino

    def test_attach_exports_metrics_and_sweep_passes(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        _page_in(store, A)
        assert store.verify_catalog() == 0
        assert store.snapshot_backed(A) and store.snapshot_backed(B)
        metrics = MetricsRegistry()
        observe_residency(store, metrics)
        gauges = metrics.snapshot()["gauges"]
        assert gauges["snapshot_mapped_bytes"] == store.mapped_bytes() > 0
        # Residency is best-effort; when reported it must be a sane gauge.
        if "snapshot_resident_bytes" in gauges:
            assert gauges["snapshot_resident_bytes"] >= 0

    def test_a_cluster_worker_sweeps_its_snapshot_and_exports_residency(
        self, llama, tok, pc, tmp_path
    ):
        save_store(pc.store, tmp_path)
        _flip_last_byte(_keys_file(tmp_path, A))
        worker = ClusterWorker(
            "w0", llama, tok, template=PLAIN_TEMPLATE,
            store=ModuleCacheStore(snapshot_dir=tmp_path),
        )

        async def run():
            await worker.start()
            try:
                for thread in threading.enumerate():
                    if thread.name == "w0-digest-sweep":
                        thread.join(timeout=30)
                assert worker.store.fetch(B).source == "snapshot"
                return worker.stats()
            finally:
                await worker.stop()

        with pytest.warns(UserWarning, match="digest sweep dropping lib/a/solo"):
            stats = asyncio.run(run())
        assert not worker.store.snapshot_backed(A)
        assert stats["gauges"]["snapshot_mapped_bytes"] == worker.store.mapped_bytes() > 0


class TestWriteGuard:
    @pytest.fixture()
    def guarded(self):
        already = sanitize.active_auditor()
        install_sanitizers()
        yield
        if already is None:
            uninstall_sanitizers()

    def test_append_into_mapped_arena_raises(self, guarded, tmp_path):
        store = ModuleCacheStore()
        store.put(CacheKey("s", "a"), _module_kv(3), tier="cpu")
        save_store(store, tmp_path)
        mapped = _page_in(ModuleCacheStore(snapshot_dir=tmp_path), CacheKey("s", "a"))
        layer = LayerKV.adopt(
            np.asarray(mapped.key_arena[0]),
            np.asarray(mapped.value_arena[0]),
            np.asarray(mapped.positions),
            length=len(mapped) - 1,  # spare capacity inside the mapping
        )
        grow = np.ones((2, 1, 4), dtype=np.float32)
        with pytest.raises(SanitizerError, match="snapshot-mapped"):
            layer.append(grow, grow, np.array([99]))

    def test_private_append_still_fine(self, guarded):
        layer = LayerKV(n_kv_heads=2, head_dim=4)
        grow = np.ones((2, 3, 4), dtype=np.float32)
        layer.append(grow, grow, np.arange(3))
        assert len(layer) == 3

    def test_guard_uninstalled_with_sanitizers(self):
        from repro.llm import kv as kv_mod

        already = sanitize.active_auditor()
        install_sanitizers()
        assert kv_mod._WRITE_GUARD is not None
        if already is None:
            uninstall_sanitizers()
            assert kv_mod._WRITE_GUARD is None

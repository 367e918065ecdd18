"""What a snapshot page-in trusts, and every way a file can stop earning it.

The store hashes a payload file's sparse digest once per *file state*: a
page-in whose descriptor ``fstat``s to the state the digest last matched at
maps it without hashing. These tests change a payload in every way a file
can change — after the record has been paged in (and trusted) before — and
require the very next page-in to refuse it; they pin that an untouched
file costs no hashing, that a file younger than the racy margin is never
remembered, and that the bytes served are those of the descriptor that was
checked even when the path is renamed onto something else in between.

File timestamps are real and cannot be back-dated (``os.utime`` moves
ctime to now), so the *clock the margin is measured against* is the
injected part: ``persist._wall_clock_ns``. No test sleeps.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.cache import persist
from repro.cache.persist import save_store
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.llm.kv import ModuleKV
from tests.test_churn_cost import profiled

KEYS = [CacheKey("s", f"m{i}") for i in range(3)]
SHAPE = (3, 2, 6, 4)
MARGIN_NS = persist._RACY_MARGIN_NS


def module_kv(seed: int) -> ModuleKV:
    rng = np.random.default_rng(seed)
    return ModuleKV.from_arenas(
        rng.standard_normal(SHAPE).astype(np.float32),
        rng.standard_normal(SHAPE).astype(np.float32),
        np.arange(SHAPE[2], dtype=np.int64),
    )


def kv_bytes(kv: ModuleKV) -> bytes:
    return b"".join(
        np.ascontiguousarray(a).tobytes() for a in (*kv.keys, *kv.values, kv.positions)
    )


def payload_paths(directory, key: CacheKey) -> list:
    stem = f"{key.schema}__{key.module}__{key.variant}"
    return [directory / f"{stem}.{part}.npy" for part in ("keys", "values", "positions")]


def file_state(path) -> tuple:
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


@pytest.fixture()
def clock(monkeypatch):
    """The wall clock file ages are measured against, under test control."""

    class Clock:
        now_ns = 0

    monkeypatch.setattr(persist, "_wall_clock_ns", lambda: Clock.now_ns)
    return Clock


def spilled_store(directory) -> ModuleCacheStore:
    """One entry a tier: putting three keys spills ``KEYS[0]``."""
    budget = int(module_kv(0).nbytes() * 1.5)
    store = ModuleCacheStore(budget, budget, snapshot_dir=directory)
    for i, key in enumerate(KEYS):
        store.put(key, module_kv(i))
    assert store.fabric_snapshot()["spills"] == 1 and KEYS[0] not in store
    return store


def attached_store(directory) -> ModuleCacheStore:
    """``KEYS[0]`` saved by someone else and attached from ``index.json``."""
    seed = ModuleCacheStore()
    seed.put(KEYS[0], module_kv(0))
    save_store(seed, directory)
    return ModuleCacheStore(snapshot_dir=directory)


STORES = {"spilled": spilled_store, "attached": attached_store}


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    return STORES[request.param](tmp_path)


def page_in(store: ModuleCacheStore, key: CacheKey = KEYS[0]):
    """A demand fetch that has to go to the snapshot tier."""
    for tier in (store.gpu, store.cpu):
        if key in tier:
            tier.remove(key)
    found = store.fetch(key)
    assert found is None or found.source == "snapshot"
    return found


def age(clock, directory, key: CacheKey = KEYS[0]) -> None:
    """Move the clock to where every payload file of ``key`` is exactly
    one margin old — the youngest state the ledger remembers."""
    clock.now_ns = MARGIN_NS + max(
        os.stat(p).st_ctime_ns for p in payload_paths(directory, key)
    )


def paged_in_twice(store, clock, directory) -> dict:
    """The state every change below is made in: the record has been
    hashed once and trusted once."""
    age(clock, directory)
    for _ in range(2):
        assert kv_bytes(page_in(store).entry.kv) == kv_bytes(module_kv(0))
    snap = store.fabric_snapshot()
    assert (snap["verify_hashed"], snap["verify_trusted"]) == (3, 3)
    return snap


# -- every way a file can change --------------------------------------------------


def rewrite_one_byte(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))  # same inode, same size


def truncate(path) -> None:
    os.truncate(path, path.stat().st_size - 8)


def rewrite_and_restore_mtime(path) -> None:
    st = path.stat()
    rewrite_one_byte(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))  # ctime still moves
    assert path.stat().st_mtime_ns == st.st_mtime_ns


def rename_replace(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    other = path.with_name(path.name + ".other")
    other.write_bytes(bytes(raw))  # same size, different payload, new inode
    os.replace(other, path)


CHANGES = [rewrite_one_byte, truncate, rewrite_and_restore_mtime, rename_replace]


def change(path, how) -> None:
    """Apply ``how`` until the file system shows it. The clock is fake but
    the files are milliseconds old: on a kernel with coarse timestamps a
    rewrite can land in the tick the file was created in and leave its
    state unchanged — the case the margin exists for, tested on its own
    below. Here the change must be one ``fstat`` can see."""
    before, original = file_state(path), path.read_bytes()
    how(path)
    while file_state(path) == before:
        path.write_bytes(original)
        os.utime(path, ns=(before[3], before[3]))
        how(path)


def assert_refused(store: ModuleCacheStore) -> None:
    with pytest.warns(UserWarning, match="sparse checksum mismatch"):
        assert page_in(store) is None
    assert not store.snapshot_backed(KEYS[0])  # no retry loop on a bad payload
    assert store.fabric_snapshot()["verify_failed"] == 1
    assert page_in(store) is None  # and nothing brings it back


@pytest.mark.parametrize("how", CHANGES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("part", [0, 2], ids=["keys", "positions"])
def test_a_changed_file_is_refused_at_the_next_page_in(store, clock, tmp_path, how, part):
    before = paged_in_twice(store, clock, tmp_path)
    change(payload_paths(tmp_path, KEYS[0])[part], how)
    assert_refused(store)
    after = store.fabric_snapshot()
    # The changed file was hashed, not trusted; files before it in the
    # record were still trusted, files after it never opened.
    assert after["verify_hashed"] == before["verify_hashed"] + 1
    assert after["verify_trusted"] == before["verify_trusted"] + part
    assert after["tiers"]["snapshot"]["misses"] == 1


def test_a_rewrite_inside_the_racy_margin_is_refused(store, clock, tmp_path):
    """The file is fresh, so nothing was remembered: even a rewrite that
    leaves every ``fstat`` field as it was would be hashed."""
    paths = payload_paths(tmp_path, KEYS[0])
    clock.now_ns = MARGIN_NS - 1 + min(os.stat(p).st_ctime_ns for p in paths)
    for _ in range(2):
        assert page_in(store) is not None
    snap = store.fabric_snapshot()
    assert (snap["verify_hashed"], snap["verify_trusted"]) == (6, 0)
    rewrite_one_byte(paths[0])
    clock.now_ns = MARGIN_NS - 1 + os.stat(paths[0]).st_ctime_ns
    assert_refused(store)


# -- what an unchanged file costs -------------------------------------------------


def test_the_first_page_in_is_always_hashed(store, clock, tmp_path):
    age(clock, tmp_path)
    found, counts = profiled(lambda: page_in(store))
    assert found is not None
    assert counts["hashlib"] >= 3  # at least the head block of each file
    snap = store.fabric_snapshot()
    assert (snap["verify_hashed"], snap["verify_trusted"]) == (3, 0)


def test_an_untouched_file_is_hashed_once(store, clock, tmp_path):
    age(clock, tmp_path)
    assert page_in(store) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3):
            found, counts = profiled(lambda: page_in(store))
            assert kv_bytes(found.entry.kv) == kv_bytes(module_kv(0))
            assert found.entry.kv.is_mapped
            assert counts["hashlib"] == 0 and counts["compile"] == 0
            snap = store.fabric_snapshot()
            assert (snap["verify_hashed"], snap["verify_trusted"]) == (3, 3 * n)
    assert snap["verify_failed"] == 0 and snap["tiers"]["snapshot"]["hits"] == 4


def test_a_young_file_is_hashed_until_it_ages(store, clock, tmp_path):
    paths = payload_paths(tmp_path, KEYS[0])
    ctimes = [os.stat(p).st_ctime_ns for p in paths]
    clock.now_ns = MARGIN_NS - 1 + min(ctimes)  # every file under the margin
    for n in (1, 2, 3):
        assert page_in(store) is not None
        snap = store.fabric_snapshot()
        assert (snap["verify_hashed"], snap["verify_trusted"]) == (3 * n, 0)
    clock.now_ns = MARGIN_NS + max(ctimes)  # every file exactly at it
    assert page_in(store) is not None  # hashed once more, and remembered
    assert page_in(store) is not None
    snap = store.fabric_snapshot()
    assert (snap["verify_hashed"], snap["verify_trusted"]) == (12, 3)
    clock.now_ns = 0  # a clock that steps back un-remembers nothing it hashed
    assert page_in(store) is not None
    assert store.fabric_snapshot()["verify_trusted"] == 6


def test_forgetting_the_record_forgets_its_states(tmp_path, clock):
    store = spilled_store(tmp_path)
    paged_in_twice(store, clock, tmp_path)
    store.remove_matching(KEYS[0].schema, KEYS[0].module)
    assert not any(p.exists() for p in payload_paths(tmp_path, KEYS[0]))
    store.put(KEYS[0], module_kv(7))  # the text changed: new states...
    for i in (1, 2):  # ...pushed out and spilled under the old file names
        store.put(CacheKey("s", f"never-held-{i}"), module_kv(i))
    assert KEYS[0] not in store and store.snapshot_backed(KEYS[0])
    age(clock, tmp_path)
    assert kv_bytes(page_in(store).entry.kv) == kv_bytes(module_kv(7))
    snap = store.fabric_snapshot()
    assert snap["verify_hashed"] == 3 + 3  # hashed afresh, not trusted on the old record


def test_prefetch_page_ins_are_not_demand_hits(tmp_path, clock):
    store = attached_store(tmp_path)
    age(clock, tmp_path)
    assert store._page_in(KEYS[0], prefetch=True) is not None
    assert store._page_in(KEYS[0], prefetch=True) is not None
    assert page_in(store) is not None
    snap = store.fabric_snapshot()
    assert snap["tiers"]["snapshot"]["hits"] == 1 and snap["prefetch_page_ins"] == 2
    assert (snap["verify_hashed"], snap["verify_trusted"]) == (3, 6)


def test_the_ledger_is_exported_as_one_prometheus_series(tmp_path, clock, llama, tok):
    from repro.cache.engine import PromptCache
    from repro.server import LiveServer, ServeOptions

    store = attached_store(tmp_path)
    paged_in_twice(store, clock, tmp_path)
    change(payload_paths(tmp_path, KEYS[0])[0], truncate)
    assert_refused(store)
    server = LiveServer(PromptCache(llama, tok, store=store), ServeOptions())
    counters = server.snapshot()["counters"]
    assert {
        result: counters[f'snapshot_verify_total{{result="{result}"}}']
        for result in ("hashed", "trusted", "failed")
    } == {"hashed": 4, "trusted": 3, "failed": 1}
    assert 'snapshot_verify_total{result="trusted"} 3' in server.metrics.to_prometheus()


# -- the bytes that were checked are the bytes that are mapped --------------------


def test_a_rename_between_check_and_map_serves_the_verified_inode(
    store, clock, tmp_path, monkeypatch
):
    """Another worker spilling the same module renames a new file over
    the name after this page-in has opened and verified the old one."""
    paged_in_twice(store, clock, tmp_path)
    keys_path = payload_paths(tmp_path, KEYS[0])[0]
    read_part, swapped = persist._read_part, []

    def swap_then_read(handle, info, mmap):
        if info["file"] == keys_path.name and not swapped:
            rename_replace(keys_path)
            swapped.append(file_state(keys_path))
        return read_part(handle, info, mmap)

    monkeypatch.setattr(persist, "_read_part", swap_then_read)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = page_in(store)
    assert swapped and found.entry.kv.is_mapped
    assert kv_bytes(found.entry.kv) == kv_bytes(module_kv(0))
    # The file now under that name is somebody else's: next time it is
    # seen for what it is.
    monkeypatch.setattr(persist, "_read_part", read_part)
    assert_refused(store)


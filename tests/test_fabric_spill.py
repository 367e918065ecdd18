"""The store's write-back spill tier: nothing it has held is recomputed.

Two levels. A seeded state walk over a tiny store (one entry per
resident tier, a ``tmp_path`` snapshot directory) interleaves put /
fetch / invalidate / corrupt-a-spilled-file and checks the
storage contract after every step: what comes back is byte-equal to what
was put, a live key is never a miss, a forgotten key is never a hit, and
the byte budgets hold — under a lock-order recorder, so an inversion on
the spill path fails at the faulting acquire. The same walk without a
snapshot directory holds the same contract, except that a key the store
reports dropping (evict listeners) is no longer owed. Then the engine, per
positional family: twelve schemas round-robin through the continuous
scheduler on a fabric holding five produce the tokens ``serve`` produces
on an unbounded store, with every never-backed module encoded exactly
once; and an unwritable snapshot directory degrades to the old drop.
"""

from __future__ import annotations

import os
import random
import time
import warnings

import numpy as np
import pytest

from repro.analysis import locks
from repro.analysis.sanitize import LockDep
from repro.cache import engine as engine_module
from repro.cache import persist
from repro.cache.engine import PromptCache
from repro.cache.persist import save_store
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.llm.kv import ModuleKV
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler
from repro.server.request import LiveRequest

KEYS = [CacheKey("s", f"m{i}") for i in range(5)]


def module_kv(key: CacheKey, version: int) -> ModuleKV:
    """The states of ``key`` at text version ``version`` — like the
    engine's, a pure function of the two."""
    rng = np.random.default_rng(1000 * KEYS.index(key) + version)
    shape = (3, 2, 6, 4)
    return ModuleKV.from_arenas(
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        np.arange(6, dtype=np.int64),
    )


def kv_bytes(kv: ModuleKV) -> bytes:
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (*kv.keys, *kv.values, kv.positions)
    )


@pytest.fixture()
def lockdep():
    """Locks built during the test report to a fresh recorder."""
    previous = locks.active_lockdep()
    locks.set_lockdep(LockDep())
    try:
        yield
    finally:
        locks.set_lockdep(previous)


class Walk:
    """A store holding ~2 entries beside the model of what it owes;
    ``directory`` None walks it without a snapshot directory."""

    def __init__(self, directory) -> None:
        self.now = 0.0
        self.budget = int(module_kv(KEYS[0], 0).nbytes() * 1.5)  # one entry a tier
        self.store = ModuleCacheStore(
            self.budget, self.budget, snapshot_dir=directory, clock=lambda: self.now,
        )
        self.directory = directory
        self.version = dict.fromkeys(KEYS, 0)
        self.live: set[CacheKey] = set()  # put; not invalidated, dropped or rotted since
        self.forgotten: set[CacheKey] = set()  # invalidated and not put again
        self.dropped: list[CacheKey] = []
        for tier in (self.store.gpu, self.store.cpu):
            tier.add_evict_listener(self.on_evict)

    def on_evict(self, victim) -> None:
        """A victim held nowhere afterwards is lost — never with a
        snapshot directory, to capacity without one."""
        key = victim.key
        if key in self.store or self.store.snapshot_backed(key):
            return
        assert self.directory is None, f"{key.tag()} was not spilled"
        self.dropped.append(key)
        self.live.discard(key)

    def step(self, op: str, key: CacheKey) -> None:
        self.now += 1.0
        getattr(self, op)(key)
        for tier in (self.store.gpu, self.store.cpu):
            assert tier.used_bytes <= self.budget
        assert self.store.fabric_snapshot()["spill_errors"] == 0

    def put(self, key: CacheKey) -> None:
        self.store.put(key, module_kv(key, self.version[key]))
        self.live.add(key)
        self.forgotten.discard(key)

    def fetch(self, key: CacheKey) -> None:
        found = self.store.fetch(key)
        if found is None:
            assert key not in self.live, f"{key.tag()} was put and is gone"
            return
        assert key not in self.forgotten, f"{key.tag()} came back after invalidate"
        assert found.source in ("gpu", "cpu", "snapshot")
        assert kv_bytes(found.entry.kv) == kv_bytes(module_kv(key, self.version[key]))

    def invalidate(self, key: CacheKey) -> None:
        self.store.remove_matching(key.schema, key.module)
        self.version[key] += 1  # the text changed: old states are wrong now
        self.live.discard(key)
        self.forgotten.add(key)
        assert not self.store.snapshot_backed(key) and key not in self.store

    def corrupt(self, key: CacheKey) -> None:
        if key in self.store or not self.store.snapshot_backed(key):
            return  # resident (its mapping is in use) or nothing on disk
        path = self.directory / f"{key.schema}__{key.module}__{key.variant}.keys.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        before = os.stat(path)
        path.write_bytes(bytes(raw))
        while os.stat(path).st_ctime_ns == before.st_ctime_ns:
            path.write_bytes(bytes(raw))  # same tick as the file's creation
        with pytest.warns(UserWarning, match="checksum mismatch"):
            assert self.store.fetch(key) is None
        assert not self.store.snapshot_backed(key)  # no retry loop on a bad payload
        self.live.discard(key)


OPS = ["put"] * 8 + ["fetch"] * 12 + ["corrupt"] * 4 + ["invalidate"] * 2


def walk_randomly(walk: Walk, seed: int) -> dict:
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a corrupt-entry warning nobody caused
        for _ in range(120):
            walk.step(rng.choice(OPS), rng.choice(KEYS))
        for key in sorted(walk.live, key=CacheKey.tag):
            walk.step("fetch", key)
    return walk.store.fabric_snapshot()


class TestStateWalk:
    @pytest.mark.parametrize("seed", range(16))
    def test_fetch_returns_what_was_put(self, seed, tmp_path, lockdep):
        snap = walk_randomly(Walk(tmp_path), seed)
        # Every walk this long spills, pages back in and meets a rotted file.
        assert snap["spills"] and snap["tiers"]["snapshot"]["hits"]
        assert snap["tiers"]["snapshot"]["misses"]

    @pytest.mark.parametrize("seed", range(16))
    def test_fetch_returns_what_was_put_without_a_snapshot_dir(self, seed, lockdep):
        walk = Walk(None)
        snap = walk_randomly(walk, seed)
        assert snap["spills"] == 0 and snap["catalog_entries"] == 0
        assert walk.dropped  # DRAM victims had nowhere to go

    def test_walk_reaches_the_spill_tier(self, tmp_path, lockdep):
        """The generated walk is only worth something if its operations
        do spill and page back in: pin that on a fixed sequence."""
        walk = Walk(tmp_path)
        for key in KEYS[:4]:
            walk.step("put", key)
        snap = walk.store.fabric_snapshot()
        assert snap["spills"] == 2 and snap["spill_bytes"] > 0
        assert snap["placement"]["spills"] == 2
        walk.step("fetch", KEYS[0])
        assert walk.store.snapshot_stats.hits == 1
        # Paging KEYS[0] back in pushed two more residents down; both were
        # already on disk or are written now, and nothing is ever lost.
        for key in KEYS[:4]:
            walk.step("fetch", key)
        assert walk.store.fabric_snapshot()["spills"] == 4
        assert walk.store.fabric_snapshot()["reencodes"] == 0

    def test_corrupt_after_two_page_ins_is_refused(self, tmp_path, lockdep, monkeypatch):
        """Page in twice, then corrupt: the second page-in was served on
        the remembered file state (the files count as aged here), and the
        rewrite is still seen before a byte of it is served."""
        monkeypatch.setattr(
            persist, "_wall_clock_ns", lambda: time.time_ns() + 10 * 10**9
        )
        walk = Walk(tmp_path)
        for key in KEYS[:4]:
            walk.step("put", key)
        for _ in range(2):
            for key in KEYS[:4]:  # each fetch pushes the others back out
                walk.step("fetch", key)
        snap = walk.store.fabric_snapshot()
        assert snap["tiers"]["snapshot"]["hits"] == 8
        assert snap["verify_hashed"] == 12 and snap["verify_trusted"] == 12
        assert KEYS[0] not in walk.store
        walk.step("corrupt", KEYS[0])
        snap = walk.store.fabric_snapshot()
        assert snap["verify_failed"] == 1 and snap["verify_hashed"] == 13
        walk.step("fetch", KEYS[0])  # gone for good, and the walk knows it
        for key in KEYS[1:4]:
            walk.step("fetch", key)
        assert walk.store.fabric_snapshot()["verify_failed"] == 1

    def test_second_eviction_of_a_spilled_key_writes_nothing(self, tmp_path):
        walk = Walk(tmp_path)
        spills = []
        for _ in range(4):
            for key in KEYS[:4]:
                walk.step("put", key)
                walk.step("fetch", key)
            spills.append(walk.store.fabric_snapshot()["spills"])
        # One write per key, ever: churn after that is reads.
        assert spills[0] >= 2 and spills[1:] == [4, 4, 4]

    def test_spilled_payload_carries_both_digests(self, tmp_path):
        walk = Walk(tmp_path)
        for key in KEYS[:3]:
            walk.step("put", key)
        with walk.store._lock:
            (record,) = walk.store._catalog.values()
        assert record["spilled"] and set(record["files"]) == {"keys", "values", "positions"}
        for info in record["files"].values():
            assert len(info["sha256"]) == 64 and len(info["sparse_sha256"]) == 64
            assert (tmp_path / info["file"]).stat().st_size == info["nbytes"]
        assert not list(tmp_path.glob("*.tmp"))
        assert not (tmp_path / "index.json").exists()  # the catalog is memory-only

    def test_invalidate_unlinks_only_spilled_files(self, tmp_path):
        seed = ModuleCacheStore()
        seed.put(KEYS[4], module_kv(KEYS[4], 0))
        save_store(seed, tmp_path)
        attached = set(tmp_path.iterdir())
        walk = Walk(tmp_path)
        for key in KEYS[:3]:
            walk.step("put", key)
        assert set(tmp_path.iterdir()) > attached
        for key in KEYS:
            walk.store.remove_matching(key.schema, key.module)
        assert set(tmp_path.iterdir()) == attached
        assert walk.store.fabric_snapshot()["catalog_entries"] == 0


# -- the engine on a churning fabric ------------------------------------------------

WORDS = (
    "the quick brown fox jumps over the lazy dog miami beaches nightlife surf "
    "spots art deco paris museums cafes architecture louvre seine plan a trip "
    "lasting three days focus on food the capital of atlantis is coral city"
).split()
N_SCHEMAS = 12
N_BACKED = 4


def churn_schema(i: int) -> str:
    def text(offset: int) -> str:
        return " ".join(WORDS[(7 * i + offset + j) % len(WORDS)] for j in range(10))

    return (
        f'<schema name="c{i:02d}"><module name="a">{text(0)}</module>'
        f'<module name="b">{text(3)}</module></schema>'
    )


def churn_prompt(i: int) -> str:
    return f'<prompt schema="c{i:02d}"><a/><b/> what should we do ?</prompt>'


def churn_engine(model, tok, snapshot_dir, *, save: bool = True) -> PromptCache:
    """Twelve two-module schemas on a fabric whose tiers hold about five;
    the last four are attached from a snapshot saved under
    ``snapshot_dir`` (unless ``save`` is off), the first eight exist
    nowhere but in the fabric."""
    seed_pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    for i in range(N_SCHEMAS - N_BACKED, N_SCHEMAS):
        seed_pc.register_schema(churn_schema(i))
    schema_bytes = seed_pc.store.total_bytes() / N_BACKED
    if save:
        save_store(seed_pc.store, snapshot_dir)
    store = ModuleCacheStore(
        int(schema_bytes * 2.2), int(schema_bytes * 3.3), snapshot_dir=snapshot_dir
    )
    pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    for i in range(N_SCHEMAS):
        pc.register_schema(churn_schema(i), eager=i < N_SCHEMAS - N_BACKED)
    return pc


def round_robin(pc: PromptCache, rounds: int) -> dict[str, tuple[int, ...]]:
    """``rounds`` passes over the schemas through the continuous
    scheduler, two admissions per iteration; returns outputs by id."""
    sched = ContinuousScheduler(pc, max_inflight=4)
    pending = [
        LiveRequest(
            request_id=f"r{n}-{i}", prompt=churn_prompt(i), schema=f"c{i:02d}",
            max_new_tokens=3, submitted_at=0.0,
        )
        for n in range(rounds)
        for i in range(N_SCHEMAS)
    ]
    outputs = {}
    while pending or sched.active:
        room = max(0, 4 - sched.active)
        admit, pending = pending[: min(2, room)], pending[min(2, room) :]
        outcome = sched.iterate(admit)
        for request, result, error, _at in outcome.finished:
            assert error is None, error
            outputs[request.request_id] = tuple(result.output_ids)
    return outputs


@pytest.fixture()
def encode_calls(monkeypatch):
    calls = []
    original = engine_module.encode_module

    def counting(model, layout, *args, **kwargs):
        calls.append(layout.name)
        return original(model, layout, *args, **kwargs)

    monkeypatch.setattr(engine_module, "encode_module", counting)
    return calls


class TestEngineOnAChurningFabric:
    def test_every_module_is_encoded_once(self, any_model, tok, tmp_path, encode_calls):
        reference = PromptCache(any_model, tok, template=PLAIN_TEMPLATE)
        for i in range(N_SCHEMAS):
            reference.register_schema(churn_schema(i))
        expected = {
            i: tuple(reference.serve(churn_prompt(i), max_new_tokens=3).output_ids)
            for i in range(N_SCHEMAS)
        }
        del encode_calls[:]

        pc = churn_engine(any_model, tok, tmp_path / "snap")
        outputs = round_robin(pc, rounds=3)
        assert len(outputs) == 3 * N_SCHEMAS
        for request_id, tokens in outputs.items():
            assert tokens == expected[int(request_id.split("-")[1])], request_id

        never_backed = 2 * (N_SCHEMAS - N_BACKED)
        snap = pc.store.fabric_snapshot()
        # encode_module ran for the seed engine's backed modules and once
        # for each never-backed one — and never again, through three
        # passes over a fabric that holds five schemas of twelve.
        assert len(encode_calls) == 2 * N_BACKED + never_backed
        assert snap["first_encodes"] == never_backed and snap["reencodes"] == 0
        assert snap["spills"] == never_backed and snap["spill_errors"] == 0
        assert snap["tiers"]["snapshot"]["hits"] > never_backed
        assert snap["tiers"]["snapshot"]["misses"] == 0

    def test_equal_runs_spill_equally(self, llama, tok, tmp_path):
        snaps = []
        for name in ("one", "two"):
            pc = churn_engine(llama, tok, tmp_path / name)
            round_robin(pc, rounds=2)
            snap = pc.store.fabric_snapshot()
            snaps.append(
                (snap["spills"], snap["spill_bytes"], snap["reencodes"],
                 snap["tiers"]["snapshot"]["hits"])
            )
        assert snaps[0] == snaps[1]

    def test_unwritable_snapshot_dir_drops_as_before(self, llama, tok, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a file where the snapshot directory should be")
        pc = churn_engine(llama, tok, blocker, save=False)
        assert pc.store.fabric_snapshot()["catalog_entries"] == 0
        outputs = round_robin(pc, rounds=2)
        reference = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        for i in range(N_SCHEMAS):
            reference.register_schema(churn_schema(i))
        for request_id, tokens in outputs.items():
            i = int(request_id.split("-")[1])
            assert tokens == tuple(
                reference.serve(churn_prompt(i), max_new_tokens=3).output_ids
            )
        snap = pc.store.fabric_snapshot()
        assert snap["spill_errors"] > 0 and snap["spills"] == 0
        assert snap["reencodes"] > 0  # lost victims are paid for again, as before

"""Module store: capacity, LRU eviction, statistics, where victims go."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.storage import (
    CacheKey,
    CacheTier,
    CapacityError,
    ModuleCacheStore,
    SOLO_VARIANT,
)
from repro.llm.kv import ModuleKV

RNG = np.random.default_rng(13)


def make_kv(tokens: int) -> ModuleKV:
    shape = (2, tokens, 4)
    return ModuleKV(
        keys=[RNG.normal(size=shape).astype(np.float32)],
        values=[RNG.normal(size=shape).astype(np.float32)],
        positions=np.arange(tokens),
    )


def key(name: str, variant: str = SOLO_VARIANT) -> CacheKey:
    return CacheKey(schema="s", module=name, variant=variant)


KV_BYTES = make_kv(10).nbytes()  # all 10-token entries are the same size


class TestCacheTier:
    def test_put_get_round_trip(self):
        tier = CacheTier("gpu")
        tier.put(key("a"), make_kv(5))
        entry = tier.get(key("a"))
        assert entry is not None and len(entry.kv) == 5

    def test_miss_returns_none_and_counts(self):
        tier = CacheTier("gpu")
        assert tier.get(key("ghost")) is None
        assert tier.stats.misses == 1

    def test_hit_rate(self):
        tier = CacheTier("gpu")
        tier.put(key("a"), make_kv(3))
        tier.get(key("a"))
        tier.get(key("b"))
        assert tier.stats.hit_rate == 0.5

    def test_reinsert_replaces(self):
        tier = CacheTier("gpu")
        tier.put(key("a"), make_kv(3))
        tier.put(key("a"), make_kv(7))
        assert len(tier.get(key("a")).kv) == 7
        assert len(tier.keys()) == 1

    def test_capacity_enforced_by_eviction(self):
        tier = CacheTier("gpu", capacity_bytes=2 * KV_BYTES + 10)
        tier.put(key("a"), make_kv(10))
        tier.put(key("b"), make_kv(10))
        tier.put(key("c"), make_kv(10))  # must evict one
        assert tier.used_bytes <= tier.capacity_bytes
        assert tier.stats.evictions == 1

    def test_oversized_entry_rejected(self):
        tier = CacheTier("gpu", capacity_bytes=10)
        with pytest.raises(CapacityError):
            tier.put(key("big"), make_kv(100))

    def test_variants_are_distinct_keys(self):
        tier = CacheTier("gpu")
        tier.put(key("a"), make_kv(3))
        tier.put(key("a", "scaffold0"), make_kv(4))
        assert len(tier.keys()) == 2


class TestEvictionPolicies:
    def fill(self) -> CacheTier:
        tier = CacheTier("gpu", capacity_bytes=3 * KV_BYTES + 10)
        for name in ("a", "b", "c"):
            tier.put(key(name), make_kv(10))
        return tier

    def test_lru_evicts_least_recently_used(self):
        tier = self.fill()
        tier.get(key("a"))
        tier.get(key("c"))
        tier.put(key("d"), make_kv(10))  # b is LRU
        assert key("b") not in tier and key("a") in tier


class TestModuleCacheStore:
    def test_fetch_prefers_gpu(self):
        store = ModuleCacheStore()
        store.put(key("a"), make_kv(3), tier="cpu")
        store.put(key("a"), make_kv(3), tier="gpu")
        assert store.fetch(key("a")).tier == "gpu"

    def test_fetch_falls_back_to_cpu(self):
        store = ModuleCacheStore()
        store.put(key("a"), make_kv(3), tier="cpu")
        result = store.fetch(key("a"))
        assert result is not None and result.tier == "cpu"

    def test_gpu_overflow_spills_to_cpu(self):
        store = ModuleCacheStore(gpu_capacity_bytes=10)
        store.put(key("big"), make_kv(50), tier="gpu")
        assert key("big") in store.cpu

    def test_miss_returns_none(self):
        assert ModuleCacheStore().fetch(key("ghost")) is None

    def test_total_bytes(self):
        store = ModuleCacheStore()
        store.put(key("a"), make_kv(10), tier="gpu")
        store.put(key("b"), make_kv(10), tier="cpu")
        assert store.total_bytes() == 2 * KV_BYTES

    def test_unknown_tier(self):
        with pytest.raises(KeyError):
            ModuleCacheStore().tier("tpu")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcdef"), st.integers(min_value=1, max_value=20)),
        min_size=1,
        max_size=25,
    ),
)
def test_capacity_never_exceeded_property(operations):
    """Whatever the access pattern, used bytes stay in budget."""
    tier = CacheTier("gpu", capacity_bytes=5 * KV_BYTES)
    for name, tokens in operations:
        try:
            tier.put(key(name), make_kv(tokens))
        except CapacityError:
            pass  # single oversized entry: allowed to refuse
        assert tier.used_bytes <= tier.capacity_bytes


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "peek"]),
            st.sampled_from("abcdef"),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=4, max_value=12),  # every entry fits
)
def test_tier_is_lru_by_bytes(operations, capacity_units):
    """A tier matches a list kept coldest first: a hit moves its key to
    the end, a put (re)appends it, a peek moves nothing, and capacity
    evicts from the front until the newcomer fits."""
    unit = make_kv(1).nbytes()
    tier = CacheTier("gpu", capacity_bytes=capacity_units * unit)
    model: list[tuple[CacheKey, int]] = []
    evictions = 0
    for op, name, tokens in operations:
        k = key(name)
        held = [m for m, _ in model]
        if op == "peek":
            assert (tier.peek(k) is not None) == (k in held)
        elif op == "get":
            assert (tier.get(k) is not None) == (k in held)
            if k in held:
                model.append(model.pop(held.index(k)))
        else:
            model = [(m, n) for m, n in model if m != k]
            while sum(n for _, n in model) + tokens * unit > capacity_units * unit:
                model.pop(0)
                evictions += 1
            model.append((k, tokens * unit))
            tier.put(k, make_kv(tokens))
        assert tier.keys() == [m for m, _ in model]
        assert tier.used_bytes == sum(n for _, n in model)
        assert tier.stats.evictions == evictions


class TestDemotionAndPrefetch:
    def test_gpu_eviction_demotes_to_cpu(self):
        store = ModuleCacheStore(gpu_capacity_bytes=2 * KV_BYTES + 10)
        store.put(key("a"), make_kv(10))
        store.put(key("b"), make_kv(10))
        store.put(key("c"), make_kv(10))  # evicts one into the CPU tier
        assert store.gpu.stats.evictions == 1
        assert len(store.cpu.keys()) == 1
        evicted = store.cpu.keys()[0]
        assert store.fetch(evicted).tier == "cpu"

    def test_demotion_can_be_disabled(self):
        # A zero-byte DRAM tier is no DRAM tier: victims are not demoted.
        store = ModuleCacheStore(gpu_capacity_bytes=2 * KV_BYTES + 10, cpu_capacity_bytes=0)
        for name in ("a", "b", "c"):
            store.put(key(name), make_kv(10))
        assert len(store.cpu.keys()) == 0
        assert key("a") not in store and store.gpu.keys() == [key("b"), key("c")]

    def test_prefetch_promotes_from_cpu(self):
        store = ModuleCacheStore()
        store.put(key("cold"), make_kv(5), tier="cpu")
        assert store.fetch(key("cold")).tier == "cpu"
        assert store.prefetch([key("cold")]) == 1
        assert store.fetch(key("cold")).tier == "gpu"

    def test_prefetch_skips_resident_and_missing(self):
        store = ModuleCacheStore()
        store.put(key("hot"), make_kv(5), tier="gpu")
        assert store.prefetch([key("hot"), key("ghost")]) == 0

    def test_prefetch_respects_capacity(self):
        store = ModuleCacheStore(gpu_capacity_bytes=KV_BYTES + 10)
        store.put(key("cold"), make_kv(20), tier="cpu")  # larger than the fast tier
        store.put(key("warm"), make_kv(10), tier="cpu")
        assert store.prefetch([key("cold"), key("warm")]) == 1
        assert store.gpu.keys() == [key("warm")] and key("cold") in store.cpu


class TestConcurrency:
    """The store must stay consistent under interleaved async/thread access."""

    def test_threaded_hammer_keeps_accounting_consistent(self):
        import threading

        # Capacity for ~3 entries so eviction + demotion churn constantly.
        store = ModuleCacheStore(gpu_capacity_bytes=3 * KV_BYTES + 10)
        errors: list[Exception] = []

        def work(worker: int) -> None:
            try:
                for i in range(200):
                    k = CacheKey(schema="s", module=f"m{worker}-{i % 8}",
                                 variant=SOLO_VARIANT)
                    store.put(k, make_kv(10))
                    store.fetch(k)
                    store.prefetch([k])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for tier in (store.gpu, store.cpu):
            expected = sum(tier.get(k).nbytes for k in tier.keys())
            assert tier.used_bytes == expected
        assert store.gpu.used_bytes <= 3 * KV_BYTES + 10

    def test_evict_listeners_fire_outside_reentrancy_hazard(self):
        store = ModuleCacheStore(gpu_capacity_bytes=2 * KV_BYTES + 10)
        seen: list[str] = []
        # The listener re-enters the store while the evicting tier holds the
        # lock — the shared RLock must make this safe, not deadlock.
        store.gpu.add_evict_listener(
            lambda victim: seen.append(victim.key.module) or store.cpu.keys()
        )
        for name in ("a", "b", "c"):
            store.put(key(name), make_kv(10))
        assert seen == ["a"]
        assert any(k.module == "a" for k in store.cpu.keys())  # still demoted

    def test_asyncio_tasks_share_the_store(self):
        import asyncio

        store = ModuleCacheStore(gpu_capacity_bytes=4 * KV_BYTES + 10)

        async def main():
            loop = asyncio.get_running_loop()

            def work(worker: int) -> None:
                for i in range(100):
                    k = CacheKey(schema="s", module=f"t{worker}-{i % 4}",
                                 variant=SOLO_VARIANT)
                    store.put(k, make_kv(10))
                    store.fetch(k)

            await asyncio.gather(
                *(loop.run_in_executor(None, work, w) for w in range(4))
            )

        asyncio.run(main())
        total = store.gpu.stats.insertions + store.cpu.stats.insertions
        assert total >= 400
        assert store.gpu.used_bytes <= 4 * KV_BYTES + 10


class TestPerTierPolicyAndReasons:
    def test_one_policy_orders_both_tiers(self):
        # LRU by bytes, the one retention rule, in the fast tier and in DRAM.
        for name in ("gpu", "cpu"):
            tier = ModuleCacheStore(2 * KV_BYTES + 10, 2 * KV_BYTES + 10).tier(name)
            tier.put(key("a"), make_kv(10))
            tier.put(key("b"), make_kv(10))
            tier.get(key("a"))
            tier.put(key("c"), make_kv(10))
            assert tier.keys() == [key("a"), key("c")], name

    def test_capacity_victim_reaches_listeners_after_demotion(self):
        resident: list[bool] = []
        store = ModuleCacheStore(gpu_capacity_bytes=2 * KV_BYTES + 10)
        store.gpu.add_evict_listener(lambda entry: resident.append(entry.key in store.cpu))
        for name in ("a", "b", "c"):
            store.put(key(name), make_kv(10))
        # Capacity victims demote first: the listener sees the victim
        # already servable from the CPU tier.
        assert resident == [True]
        assert store.cpu.keys() == [key("a")]


class TestVictimsDramCannotTake:
    """A fast-tier victim with no room in DRAM leaves the way a DRAM victim
    does — spilled when there is a snapshot directory, else dropped — and
    never fails the ``put`` that evicted it. Evict listeners (the engine's
    plan invalidation, the runtime's eviction counters) see it."""

    @staticmethod
    def listened(store: ModuleCacheStore) -> list:
        seen = []
        for tier in (store.gpu, store.cpu):
            tier.add_evict_listener(
                lambda victim, name=tier.name: seen.append((name, victim.key.module))
            )
        return seen

    @pytest.mark.parametrize("spill", [False, True], ids=["dropped", "spilled"])
    def test_zero_dram_store(self, spill, tmp_path):
        store = ModuleCacheStore(
            2 * KV_BYTES + 10, 0, snapshot_dir=tmp_path if spill else None
        )
        seen = self.listened(store)
        kvs = {name: make_kv(10) for name in "abc"}
        for name, kv in kvs.items():
            store.put(key(name), kv)
        assert store.gpu.keys() == [key("b"), key("c")] and not store.cpu.keys()
        assert store.gpu.stats.evictions == 1
        assert seen == [("gpu", "a")]
        assert store.snapshot_backed(key("a")) is spill
        found = store.fetch(key("a"))
        if not spill:
            assert found is None
            return
        assert found.source == "snapshot" and found.tier == "gpu"
        assert np.array_equal(found.entry.kv.key_arena, kvs["a"].ensure_arena().key_arena)
        assert seen[1:] == [("gpu", "b")]  # b made room, b spilled
        assert store.snapshot_backed(key("b"))

    @pytest.mark.parametrize("spill", [False, True], ids=["dropped", "spilled"])
    def test_a_victim_larger_than_dram(self, spill, tmp_path):
        store = ModuleCacheStore(
            2 * KV_BYTES + 10, KV_BYTES + 10, snapshot_dir=tmp_path if spill else None
        )
        store.put(key("held"), make_kv(10), tier="cpu")
        seen = self.listened(store)
        store.put(key("a"), make_kv(20))  # fits the fast tier, not DRAM
        for name in "bc":
            store.put(key(name), make_kv(10))
        assert key("a") not in store and store.cpu.keys() == [key("held")]
        assert seen == [("gpu", "a")]
        assert store.snapshot_backed(key("a")) is spill

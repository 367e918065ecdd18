"""Module store: capacity, eviction policies, statistics, where victims go."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.storage import (
    CacheKey,
    CacheTier,
    ModuleCacheStore,
    POLICIES,
    SOLO_VARIANT,
)
from repro.hw.allocator import CapacityError
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
        assert tier.used_bytes <= tier.accountant.capacity_bytes
        assert tier.stats.evictions == 1

    def test_oversized_entry_rejected(self):
        tier = CacheTier("gpu", capacity_bytes=10)
        with pytest.raises(CapacityError):
            tier.put(key("big"), make_kv(100))

    def test_pinned_entries_survive(self):
        tier = CacheTier("gpu", capacity_bytes=2 * KV_BYTES + 10)
        tier.put(key("pin"), make_kv(10), pinned=True)
        tier.put(key("b"), make_kv(10))
        tier.put(key("c"), make_kv(10))
        assert key("pin") in tier

    def test_all_pinned_raises(self):
        tier = CacheTier("gpu", capacity_bytes=KV_BYTES + 10)
        tier.put(key("pin"), make_kv(10), pinned=True)
        with pytest.raises(CapacityError):
            tier.put(key("b"), make_kv(10))

    def test_variants_are_distinct_keys(self):
        tier = CacheTier("gpu")
        tier.put(key("a"), make_kv(3))
        tier.put(key("a", "scaffold0"), make_kv(4))
        assert len(tier.keys()) == 2


class TestEvictionPolicies:
    def fill(self, policy: str) -> CacheTier:
        tier = CacheTier("gpu", capacity_bytes=3 * KV_BYTES + 10, policy=policy)
        for name in ("a", "b", "c"):
            tier.put(key(name), make_kv(10))
        return tier

    def test_lru_evicts_least_recently_used(self):
        tier = self.fill("lru")
        tier.get(key("a"))
        tier.get(key("c"))
        tier.put(key("d"), make_kv(10))  # b is LRU
        assert key("b") not in tier and key("a") in tier

    def test_lfu_evicts_least_frequently_used(self):
        tier = self.fill("lfu")
        for _ in range(3):
            tier.get(key("a"))
        for _ in range(2):
            tier.get(key("b"))
        tier.get(key("c"))
        tier.put(key("d"), make_kv(10))
        assert key("c") not in tier

    def test_fifo_evicts_oldest_insertion(self):
        tier = self.fill("fifo")
        tier.get(key("a"))  # recency must not matter
        tier.put(key("d"), make_kv(10))
        assert key("a") not in tier

    def test_size_aware_evicts_largest(self):
        tier = CacheTier("gpu", capacity_bytes=make_kv(30).nbytes() + 2 * KV_BYTES + 10, policy="size")
        tier.put(key("small1"), make_kv(10))
        tier.put(key("huge"), make_kv(30))
        tier.put(key("small2"), make_kv(10))
        tier.put(key("newcomer"), make_kv(10))
        assert key("huge") not in tier

    def test_policy_registry(self):
        assert set(POLICIES) == {"lru", "lfu", "fifo", "size"}


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
    st.sampled_from(["lru", "lfu", "fifo", "size"]),
)
def test_capacity_never_exceeded_property(operations, policy):
    """Whatever the access pattern and policy, used bytes stay in budget."""
    tier = CacheTier("gpu", capacity_bytes=5 * KV_BYTES, policy=policy)
    for name, tokens in operations:
        try:
            tier.put(key(name), make_kv(tokens))
        except CapacityError:
            pass  # single oversized entry: allowed to refuse
        assert tier.used_bytes <= tier.accountant.capacity_bytes


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
        store.gpu.put(key("pinned"), make_kv(10), pinned=True)
        store.put(key("cold"), make_kv(10), tier="cpu")
        assert store.prefetch([key("cold")]) == 0


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
            lambda victim, reason: seen.append(victim.key.module) or store.cpu.keys()
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


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTTLExpiry:
    def test_idle_entry_expires_on_get(self):
        clock = FakeClock()
        tier = CacheTier("gpu", ttl_s=10.0, clock=clock)
        tier.put(key("a"), make_kv(10))
        clock.now = 11.0
        assert tier.get(key("a")) is None
        assert tier.stats.ttl_evictions == 1
        assert key("a") not in tier

    def test_hit_refreshes_the_ttl(self):
        clock = FakeClock()
        tier = CacheTier("gpu", ttl_s=10.0, clock=clock)
        tier.put(key("a"), make_kv(10))
        clock.now = 8.0
        assert tier.get(key("a")) is not None  # refresh at t=8
        clock.now = 17.0  # 9s idle since the hit, 17s since insert
        assert tier.get(key("a")) is not None

    def test_sweep_expires_in_bulk_without_demotion(self):
        clock = FakeClock()
        store = ModuleCacheStore(gpu_ttl_s=10.0, clock=clock)
        for name in ("a", "b"):
            store.put(key(name), make_kv(10))
        clock.now = 20.0
        assert store.sweep_expired() == 2
        # TTL victims are stale, not hot-capacity casualties: they are
        # dropped outright, never demoted to the CPU tier.
        assert not store.gpu.keys() and not store.cpu.keys()

    def test_pinned_entries_never_expire(self):
        clock = FakeClock()
        tier = CacheTier("gpu", ttl_s=10.0, clock=clock)
        tier.put(key("a"), make_kv(10), pinned=True)
        clock.now = 100.0
        assert tier.sweep_expired() == 0
        assert tier.get(key("a")) is not None

    def test_put_sweeps_before_capacity_eviction(self):
        clock = FakeClock()
        listener_reasons: list[tuple[str, str]] = []
        tier = CacheTier(
            "gpu", capacity_bytes=2 * KV_BYTES + 10, ttl_s=10.0, clock=clock
        )
        tier.add_evict_listener(
            lambda entry, reason: listener_reasons.append(
                (entry.key.module, reason)
            )
        )
        tier.put(key("a"), make_kv(10))
        clock.now = 11.0
        tier.put(key("b"), make_kv(10))
        tier.put(key("c"), make_kv(10))
        # "a" left via TTL during the puts, so capacity never forced an
        # eviction — and the listener saw the reason label say so.
        assert listener_reasons == [("a", "ttl")]
        assert tier.stats.ttl_evictions == 1
        assert tier.stats.evictions == 1


class TestPerTierPolicyAndReasons:
    def test_one_policy_orders_both_tiers(self):
        store = ModuleCacheStore(
            gpu_capacity_bytes=2 * KV_BYTES + 10,
            cpu_capacity_bytes=2 * KV_BYTES + 10,
            policy="lfu",
        )
        assert store.gpu.policy is store.cpu.policy is POLICIES["lfu"]

    def test_capacity_eviction_reports_reason_capacity(self):
        reasons: list[str] = []
        store = ModuleCacheStore(gpu_capacity_bytes=2 * KV_BYTES + 10)
        store.gpu.add_evict_listener(
            lambda entry, reason: reasons.append(reason)
        )
        for name in ("a", "b", "c"):
            store.put(key(name), make_kv(10))
        assert reasons == ["capacity"]
        # Capacity victims demote: still servable from the CPU tier.
        assert len(store.cpu.keys()) == 1

    def test_store_level_ttl_is_per_tier(self):
        clock = FakeClock()
        store = ModuleCacheStore(gpu_ttl_s=5.0, cpu_ttl_s=50.0, clock=clock)
        store.put(key("hot"), make_kv(10), tier="gpu")
        store.put(key("warm"), make_kv(10), tier="cpu")
        clock.now = 10.0
        store.sweep_expired()
        assert not store.gpu.keys()
        assert [k.module for k in store.cpu.keys()] == ["warm"]


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
                lambda victim, reason, name=tier.name: seen.append(
                    (name, victim.key.module, reason)
                )
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
        assert seen == [("gpu", "a", "capacity")]
        assert store.snapshot_backed(key("a")) is spill
        found = store.fetch(key("a"))
        if not spill:
            assert found is None
            return
        assert found.source == "snapshot" and found.tier == "gpu"
        assert np.array_equal(found.entry.kv.key_arena, kvs["a"].ensure_arena().key_arena)
        assert seen[1:] == [("gpu", "b", "capacity")]  # b made room, b spilled
        assert store.snapshot_backed(key("b"))

    @pytest.mark.parametrize("spill", [False, True], ids=["dropped", "spilled"])
    def test_every_dram_entry_pinned(self, spill, tmp_path):
        store = ModuleCacheStore(
            2 * KV_BYTES + 10, KV_BYTES + 10, snapshot_dir=tmp_path if spill else None
        )
        store.put(key("pinned"), make_kv(10), tier="cpu", pinned=True)
        seen = self.listened(store)
        for name in "abc":
            store.put(key(name), make_kv(10))
        assert key("a") not in store and store.cpu.keys() == [key("pinned")]
        assert seen == [("gpu", "a", "capacity")]
        assert store.snapshot_backed(key("a")) is spill

"""Tiered cache fabric: routes, cost models, placement, tier walk.

Covers the fabric subsystem end to end: the extended copy-route table
(mmap page-in + peer network) and its calibration hooks, the tier cost
model's ranking, placement's promote/demote/drop algebra, the
miss-fetcher error path, and — the headline — byte-identical serving
from every tier (DRAM hit, snapshot page-in, peer fetch, re-encode)
across all four positional families.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.cache.engine import PromptCache
from repro.cache.persist import save_store, snapshot_catalog
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.fabric import (
    TIER_CPU,
    TIER_GPU,
    TIER_ORDER,
    TIER_PEER,
    TIER_REENCODE,
    TIER_SNAPSHOT,
    FabricStore,
    PlacementEngine,
    TierCostModel,
    analytic_cost_model,
)
from repro.hw.calibrate import calibrate_routes
from repro.hw.transfer import (
    ROUTE_BANDWIDTH,
    Route,
    copy_latency,
    route_bandwidth,
    set_route_bandwidth,
)
from repro.llm.kv import ModuleKV
from repro.pml.chat import PLAIN_TEMPLATE

SCHEMA = (
    '<schema name="trip"><module name="city">miami beaches nightlife surf'
    ' spots art deco</module><module name="plan">plan a trip lasting three'
    ' days focus on food</module></schema>'
)
PROMPT = '<prompt schema="trip"><city/><plan/> what should we do ?</prompt>'


def _module_kv(seed: int, T: int = 6) -> ModuleKV:
    rng = np.random.default_rng(seed)
    shape = (3, 2, T, 4)
    return ModuleKV.from_arenas(
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        np.arange(T, dtype=np.int64),
    )


@pytest.fixture()
def restore_bandwidth():
    saved = dict(ROUTE_BANDWIDTH)
    yield
    ROUTE_BANDWIDTH.clear()
    ROUTE_BANDWIDTH.update(saved)


class TestRoutes:
    def test_new_routes_present_with_positive_bandwidth(self):
        for route in (Route.MMAP_PAGEIN, Route.PEER_NET):
            assert route_bandwidth(route) > 0

    def test_copy_latency_monotonic_in_payload(self):
        for route in Route:
            latencies = [copy_latency(n, route) for n in (1 << 10, 1 << 20, 1 << 30)]
            assert latencies == sorted(latencies)
            assert latencies[0] < latencies[-1]

    def test_route_hierarchy_matches_hardware_reality(self):
        # Page-in is slower than any DRAM copy; the network is slower still.
        nbytes = 1 << 20
        assert copy_latency(nbytes, Route.MMAP_PAGEIN) > copy_latency(
            nbytes, Route.HOST_TO_HOST
        )
        assert copy_latency(nbytes, Route.PEER_NET) > copy_latency(
            nbytes, Route.MMAP_PAGEIN
        )

    def test_set_route_bandwidth_validates_and_applies(self, restore_bandwidth):
        with pytest.raises(ValueError, match="positive"):
            set_route_bandwidth(Route.MMAP_PAGEIN, 0)
        set_route_bandwidth(Route.MMAP_PAGEIN, 123.0)
        assert route_bandwidth(Route.MMAP_PAGEIN) == 123.0

    def test_calibrate_routes_measures_and_applies(self, restore_bandwidth):
        measured = calibrate_routes(nbytes=1 << 18, repeats=1, apply=True)
        assert set(measured) >= {Route.HOST_TO_HOST.value, Route.MMAP_PAGEIN.value}
        for route_value, bandwidth in measured.items():
            assert bandwidth > 0
            assert route_bandwidth(Route(route_value)) == bandwidth


class TestTierCostModel:
    def test_rank_orders_tiers_cheapest_first(self):
        model = TierCostModel()
        ranked = model.rank_tiers(1 << 20, tokens=512)
        assert [tier for tier, _ in ranked] == list(TIER_ORDER)
        costs = [cost for _, cost in ranked]
        assert costs == sorted(costs)

    def test_reencode_cost_scales_with_tokens_not_bytes(self):
        model = TierCostModel(reencode_s_per_token=1e-3)
        assert model.fetch_cost_s(TIER_REENCODE, 1, tokens=100) == pytest.approx(0.1)
        assert model.fetch_cost_s(TIER_REENCODE, 1 << 30, tokens=100) == (
            model.fetch_cost_s(TIER_REENCODE, 1, tokens=100)
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError):
            TierCostModel().fetch_cost_s("tape", 1024)

    def test_observations_move_the_ewma(self):
        model = TierCostModel(peer_rtt_s=1e-3, alpha=0.5)
        model.observe_peer_rtt(9e-3)
        assert model.peer_rtt_s == pytest.approx(5e-3)
        model.observe_reencode(tokens=100, seconds=0.2)
        assert model.reencode_s_per_token > 1e-3
        cost = model.fetch_cost_s(TIER_PEER, 1 << 10)
        assert cost > model.peer_rtt_s  # RTT plus the wire time

    def test_analytic_seed_positive(self, llama):
        from repro.hw.device import device

        model = analytic_cost_model(llama.config, device("rtx-4090"))
        assert model.reencode_s_per_token > 0


class TestPlacement:
    def test_interarrival_ewma_converges(self):
        engine = PlacementEngine(horizon_s=2.0)
        key = CacheKey("s", "m")
        for i in range(16):
            engine.record_demand(key, float(i))
        demand = engine.demand_for(key)
        assert demand.hits == 16
        assert demand.interarrival_s == pytest.approx(1.0, abs=0.05)

    def test_expected_hits_goes_cold(self):
        engine = PlacementEngine(horizon_s=2.0, cold_factor=4.0)
        key = CacheKey("s", "m")
        engine.record_demand(key, 0.0)
        engine.record_demand(key, 1.0)  # gap 1s < horizon
        assert engine.expected_hits(key, 1.5) == pytest.approx(2.0)
        # Idle far beyond cold_factor x max(gap, horizon): extrapolation stops.
        assert engine.expected_hits(key, 100.0) == 0.0

    def test_promote_needs_demand_to_pay_the_move(self):
        engine = PlacementEngine(horizon_s=2.0)
        hot, unseen = CacheKey("s", "hot"), CacheKey("s", "unseen")
        for i in range(8):
            engine.record_demand(hot, 0.1 * i)
        assert engine.should_promote(hot, 1 << 20, now=0.8)
        assert not engine.should_promote(unseen, 1 << 20, now=0.8)
        snap = engine.snapshot()
        assert snap["promotions"] == 1 and snap["holds"] == 1

    def test_drop_only_snapshot_backed_cold_victims(self):
        engine = PlacementEngine(horizon_s=1.0, cold_factor=2.0)
        cold, hot = CacheKey("s", "cold"), CacheKey("s", "hot")
        engine.record_demand(cold, 0.0)
        engine.record_demand(cold, 1.0)
        for i in range(8):
            engine.record_demand(hot, 99.0 + 0.1 * i)
        now = 100.0
        # Unbacked always demotes: the snapshot cannot restore it.
        assert not engine.should_drop(cold, 1024, now, snapshot_backed=False)
        # Backed and cold: drop, the mapped snapshot pages it back.
        assert engine.should_drop(cold, 1024, now, snapshot_backed=True)
        # Backed but hot: demote, it is coming right back.
        assert not engine.should_drop(hot, 1024, now, snapshot_backed=True)
        snap = engine.snapshot()
        assert snap["drops"] == 1 and snap["demotions"] == 2

    def test_ledger_bounded_by_max_tracked(self):
        engine = PlacementEngine(max_tracked=4)
        for i in range(10):
            engine.record_demand(CacheKey("s", f"m{i}"), float(i))
        assert len(engine.tracked_keys()) <= 4
        # The most recent keys survive; the coldest were evicted.
        assert CacheKey("s", "m9") in engine.tracked_keys()


class TestMissFetcherErrors:
    """Satellite: a raising miss fetcher degrades to a local re-encode."""

    @pytest.mark.parametrize(
        "store_cls",
        [ModuleCacheStore, FabricStore],
        ids=["ModuleCacheStore", "FabricStore"],  # the alias shares __name__
    )
    def test_raising_fetcher_counted_and_degrades(self, store_cls):
        store = store_cls()
        observed = []

        def bad_fetcher(key):
            raise ConnectionResetError("peer hung up")

        store.set_miss_fetcher(bad_fetcher)
        store.add_fetch_error_listener(lambda key, exc: observed.append((key, exc)))
        key = CacheKey("s", "m")
        assert store.fetch(key) is None  # fell through to re-encode
        assert store.fetch_stats.fetch_errors == 1
        assert store.fetch_stats.hits == 0 and store.fetch_stats.misses == 0
        (obs_key, obs_exc), = observed
        assert obs_key == key
        assert isinstance(obs_exc, ConnectionResetError)

    def test_declining_and_delivering_fetchers_still_ledger(self):
        store = ModuleCacheStore()
        kv = _module_kv(0)
        store.set_miss_fetcher(lambda key: None)
        assert store.fetch(CacheKey("s", "a")) is None
        store.set_miss_fetcher(lambda key: kv)
        result = store.fetch(CacheKey("s", "b"))
        assert result is not None and result.source == "peer"
        assert store.fetch_stats.misses == 1 and store.fetch_stats.hits == 1

    def test_listener_runs_outside_store_lock(self):
        from repro.analysis.locks import assert_unheld

        store = ModuleCacheStore()
        store.set_miss_fetcher(lambda key: (_ for _ in ()).throw(OSError("boom")))
        store.add_fetch_error_listener(lambda key, exc: assert_unheld("store"))
        assert store.fetch(CacheKey("s", "m")) is None


class TestEvictionPlacement:
    """GPU capacity victims: drop when snapshot-backed and cold, else demote."""

    def _fabric(self, tmp_path, clock, **kwargs):
        seed = ModuleCacheStore()
        seed.put(CacheKey("s", "backed"), _module_kv(1))
        save_store(seed, tmp_path)
        kv = _module_kv(1)
        return ModuleCacheStore(
            gpu_capacity_bytes=int(kv.nbytes() * 1.5),
            snapshot_dir=tmp_path, clock=clock, **kwargs,
        )

    def test_backed_cold_victim_dropped_not_demoted(self, tmp_path):
        t = [0.0]
        store = self._fabric(tmp_path, lambda: t[0])
        backed, other = CacheKey("s", "backed"), CacheKey("s", "other")
        store.put(backed, _module_kv(1))
        t[0] = 100.0  # long idle: the backed entry's demand is stone cold
        store.put(other, _module_kv(2))  # evicts `backed` for capacity
        assert store.cpu.peek(backed) is None  # dropped, not demoted
        assert store.gpu.peek(other) is not None
        # ...and it is still reachable: the snapshot pages it back in.
        result = store.fetch(backed)
        assert result is not None and result.source == "snapshot"

    def test_unbacked_victim_demotes_to_dram(self, tmp_path):
        t = [0.0]
        store = self._fabric(tmp_path, lambda: t[0])
        unbacked, other = CacheKey("s", "unbacked"), CacheKey("s", "other")
        store.put(unbacked, _module_kv(3))
        t[0] = 100.0
        store.put(other, _module_kv(2))
        entry = store.cpu.peek(unbacked)
        assert entry is not None  # demoted: a re-encode is too dear to risk
        assert store.placement.snapshot()["demotions"] >= 1


    def test_spilled_victim_counts_as_backed(self, tmp_path):
        """``test_unbacked_victim_demotes_to_dram`` holds until the first
        spill: once the fabric has written a key back, that key is
        snapshot-backed like any attached one, and a cold fast-tier
        victim is dropped rather than demoted."""
        t = [0.0]
        budget = int(_module_kv(1).nbytes() * 1.5)  # one entry a tier
        store = ModuleCacheStore(
            budget, budget, snapshot_dir=tmp_path / "spill", clock=lambda: t[0]
        )
        a, b, c, d = (CacheKey("s", name) for name in "abcd")
        store.put(a, _module_kv(1))
        store.put(b, _module_kv(2))  # a: unbacked, demoted
        assert store.cpu.peek(a) is not None and not store.snapshot_backed(a)
        store.put(c, _module_kv(3))  # b demoted, a leaves DRAM: spilled
        assert store.snapshot_backed(a) and a not in store
        result = store.fetch(a)  # back in the fast tier, from disk
        assert result is not None and result.source == "snapshot"
        assert result.tier == "gpu"
        t[0] = 1.0
        assert store.fetch(a).source == "gpu"  # a second arrival: a pattern
        drops = store.placement.snapshot()["drops"]
        t[0] = 100.0  # ...which then goes cold
        store.put(d, _module_kv(4))  # evicts a for capacity
        assert a not in store  # dropped, not demoted: disk has it
        assert store.placement.snapshot()["drops"] == drops + 1
        assert store.fetch(a).source == "snapshot"
        assert store.fabric_snapshot()["spill_errors"] == 0


class TestInvalidationReachesEveryTier:
    """A module whose text changed must come back from no tier."""

    NEW_PLAN = "plan a trip lasting one day"

    def _updated_reference(self, model, tok):
        pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        pc.update_module_text("trip", "plan", self.NEW_PLAN)
        return pc

    def test_updated_module_is_not_paged_back_from_the_snapshot(
        self, llama, tok, tmp_path
    ):
        warm = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        warm.register_schema(SCHEMA)
        save_store(warm.store, tmp_path)
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        key = CacheKey("trip", "plan")
        assert store.snapshot_backed(key)
        pc.update_module_text("trip", "plan", self.NEW_PLAN)
        assert not store.snapshot_backed(key)
        # Resident copy gone (capacity pressure, in production): the next
        # serve must re-encode the new text, not page the old one in.
        for tier in (store.gpu, store.cpu):
            if key in tier:
                tier.remove(key)
        reference = self._updated_reference(llama, tok)
        served = pc.serve(PROMPT, max_new_tokens=6)
        assert served.output_ids == reference.serve(PROMPT, max_new_tokens=6).output_ids
        fresh = reference.store.fetch(key).entry.kv
        found = store.fetch(key)
        assert found.source in ("gpu", "cpu")
        assert len(found.entry.kv) == len(fresh)
        assert np.array_equal(found.entry.kv.key_arena, fresh.key_arena)
        assert np.array_equal(found.entry.kv.value_arena, fresh.value_arena)
        # The untouched module kept its snapshot record.
        assert store.snapshot_backed(CacheKey("trip", "city"))

    def test_updated_module_is_not_paged_back_from_its_spill(
        self, llama, tok, tmp_path
    ):
        reference = self._updated_reference(llama, tok)
        budget = int(reference.store.total_bytes() * 0.8)  # about one module a tier
        store = ModuleCacheStore(budget, budget, snapshot_dir=tmp_path)
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        key = CacheKey("trip", "plan")
        filler = reference.store.peek(CacheKey("trip", "city")).kv
        for name in "xyz":  # push both trip modules through DRAM to disk
            store.put(CacheKey("other", name), filler)
        assert store.snapshot_backed(key) and key not in store
        spilled = sorted(tmp_path.glob("trip__plan__*"))
        assert spilled
        pc.update_module_text("trip", "plan", self.NEW_PLAN)
        store.remove_matching("other")
        served = pc.serve(PROMPT, max_new_tokens=6)
        assert served.output_ids == reference.serve(PROMPT, max_new_tokens=6).output_ids
        snap = store.fabric_snapshot()
        assert snap["tiers"]["snapshot"]["misses"] == 0  # forgotten, not found corrupt

    @pytest.mark.parametrize("source", ["attached", "spilled", "peer"])
    def test_an_edit_landing_mid_fetch_is_not_undone(
        self, llama, tok, tmp_path, monkeypatch, source
    ):
        """The text changes while a colder tier is producing the old
        text's states — a page-in (of a saved or a spilled record, with a
        ``snapshot_dir``) or a peer answer (without one). The fetch is a
        miss; the freshly encoded states stay resident. The tiny model
        happens to emit the same tokens from both texts, so KV bytes and
        token counts are what is compared."""
        key = CacheKey("trip", "plan")
        warm = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        warm.register_schema(SCHEMA)
        old = warm.store.peek(key).kv
        if source == "attached":
            save_store(warm.store, tmp_path)
            store = ModuleCacheStore(snapshot_dir=tmp_path)
        elif source == "spilled":
            budget = int(warm.store.total_bytes() * 0.8)  # about one module a tier
            store = ModuleCacheStore(budget, budget, snapshot_dir=tmp_path)
        else:
            store = ModuleCacheStore()
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA, eager=source != "peer")
        if source == "spilled":
            filler = warm.store.peek(CacheKey("trip", "city")).kv
            for name in "xyz":  # push both trip modules through DRAM to disk
                store.put(CacheKey("other", name), filler)
            assert store.snapshot_backed(key)
        for tier in (store.gpu, store.cpu):
            if key in tier:
                tier.remove(key)
        edited = []

        def edit_first(produce):
            def racing(*args, **kwargs):
                if edited:  # the new text's encode looks the key up in here
                    return None if source == "peer" else produce(*args, **kwargs)
                produced = produce(*args, **kwargs)
                edited.append(key)
                pc.update_module_text("trip", "plan", self.NEW_PLAN)
                return produced

            return racing

        if source == "peer":
            store.set_miss_fetcher(edit_first(lambda key: old))
        else:
            from repro.cache import storage

            monkeypatch.setattr(
                storage, "load_catalog_entry", edit_first(storage.load_catalog_entry)
            )
        assert store.fetch(key) is None and edited
        reference = self._updated_reference(llama, tok)
        fresh = reference.store.peek(key).kv
        resident = store.peek(key).kv
        assert len(resident) == len(fresh) != len(old)
        assert np.array_equal(resident.key_arena, fresh.key_arena)
        assert np.array_equal(resident.value_arena, fresh.value_arena)
        served = pc.serve(PROMPT, max_new_tokens=6)
        expected = reference.serve(PROMPT, max_new_tokens=6)
        assert (served.prompt_tokens, served.cached_tokens) == (
            expected.prompt_tokens, expected.cached_tokens,
        )
        assert served.output_ids == expected.output_ids


class TestFabricTierWalk:
    """Byte-identity from every tier, across all four positional families."""

    def _pc(self, model, tok, store):
        pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        return pc

    def test_all_tiers_serve_identical_bytes(self, any_model, tok, tmp_path):
        # Reference, tiers 1+2 (resident): an unbounded store serving hot.
        warm_store = ModuleCacheStore()
        reference = self._pc(any_model, tok, warm_store).serve(
            PROMPT, max_new_tokens=6
        )
        for key in (CacheKey("trip", "city"), CacheKey("trip", "plan")):
            result = warm_store.fetch(key)
            assert result is not None and result.source in ("gpu", "cpu")

        # Persist the warm store: the snapshot becomes a lazy third tier.
        save_store(warm_store, tmp_path)

        # Tier 3 (snapshot): a cold store pages entries in per demand.
        snap_store = ModuleCacheStore(snapshot_dir=tmp_path)
        snap_pc = self._pc(any_model, tok, snap_store)
        assert snap_store.fabric_snapshot()["catalog_entries"] >= 2
        assert snap_pc.serve(PROMPT, max_new_tokens=6).output_ids == (
            reference.output_ids
        )
        assert snap_store.snapshot_stats.hits >= 2

        # Tier 4 (peer): a store with only a miss fetcher wired to the
        # warm store's entries — the in-process stand-in for the plane.
        peer_store = ModuleCacheStore()
        peer_store.set_miss_fetcher(
            lambda key: getattr(warm_store.peek(key), "kv", None)
        )
        peer_pc = self._pc(any_model, tok, peer_store)
        assert peer_pc.serve(PROMPT, max_new_tokens=6).output_ids == (
            reference.output_ids
        )
        assert peer_store.fetch_stats.hits >= 2
        assert peer_store.cost_model.peer_observations >= 2

        # Tier 5 (encode): nothing anywhere; the engine encodes and the
        # store observes the measured cost — as first encodes: nothing
        # it once held was lost.
        cold_store = ModuleCacheStore()
        cold_pc = self._pc(any_model, tok, cold_store)
        assert cold_pc.serve(PROMPT, max_new_tokens=6).output_ids == (
            reference.output_ids
        )
        snap = cold_store.fabric_snapshot()
        assert snap["first_encodes"] >= 2 and snap["reencodes"] == 0
        assert cold_store.cost_model.reencode_observations >= 2

    def test_snapshot_catalog_indexes_without_loading(self, llama, tok, tmp_path):
        warm = self._pc(llama, tok, ModuleCacheStore())
        save_store(warm.store, tmp_path)
        catalog = snapshot_catalog(tmp_path)
        assert set(catalog) == {CacheKey("trip", "city"), CacheKey("trip", "plan")}
        lazy = ModuleCacheStore(snapshot_dir=tmp_path)
        # Cataloged but nothing resident: the fabric is lazy by design.
        assert lazy.total_bytes() == 0
        assert sorted(lazy.residency_tags()) == [
            "trip/city/solo", "trip/plan/solo",
        ]

    def test_corrupt_snapshot_entry_leaves_catalog(self, llama, tok, tmp_path):
        warm = self._pc(llama, tok, ModuleCacheStore())
        save_store(warm.store, tmp_path)
        # Truncate one payload: its sparse digest can no longer match.
        victim = next(tmp_path.glob("*keys.npy"))
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        store = ModuleCacheStore(snapshot_dir=tmp_path)
        before = store.fabric_snapshot()["catalog_entries"]
        hits = misses = 0
        with pytest.warns(UserWarning, match="checksum mismatch"):
            for key in list(snapshot_catalog(tmp_path)):
                if store.fetch(key) is None:
                    misses += 1
                else:
                    hits += 1
        assert misses == 1 and hits == before - 1
        # The corrupt entry dropped out: no retry loop on a bad payload.
        assert store.fabric_snapshot()["catalog_entries"] == before - 1


class TestLiveServerSweep:
    """Satellite: TTL sweeps run from the live loop, not just lazily."""

    def test_periodic_sweep_counts_expired_entries(self):
        from repro.server import LiveServer, ServeOptions

        class StubEngine:
            def __init__(self):
                self.schemas = {"a": object()}
                self.store = ModuleCacheStore(gpu_ttl_s=0.02)

        engine = StubEngine()
        engine.store.put(CacheKey("a", "m1"), _module_kv(1))
        engine.store.put(CacheKey("a", "m2"), _module_kv(2))
        server = LiveServer(
            engine, ServeOptions(store_sweep_interval_s=0.01)
        )

        async def scenario():
            await server.start()
            # No requests in flight: only the periodic sweep can expire.
            await asyncio.sleep(0.15)
            await server.stop(drain=True)

        asyncio.run(scenario())
        swept = server.metrics.counter(
            "cache_sweep_expired_total",
            "entries expired by the periodic TTL sweep",
        ).value
        assert swept == 2
        assert engine.store.gpu.stats.ttl_evictions == 2

    def test_sweep_disabled_when_interval_none(self):
        from repro.server import LiveServer, ServeOptions

        class StubEngine:
            def __init__(self):
                self.schemas = {}
                self.store = ModuleCacheStore(gpu_ttl_s=0.02)

        engine = StubEngine()
        engine.store.put(CacheKey("a", "m1"), _module_kv(1))
        server = LiveServer(engine, ServeOptions(store_sweep_interval_s=None))

        async def scenario():
            await server.start()
            await asyncio.sleep(0.08)
            await server.stop(drain=True)

        asyncio.run(scenario())
        # Entry is stale but nothing touched it: lazy-only semantics kept.
        assert engine.store.gpu.stats.ttl_evictions == 0

    def test_fetch_error_metrics_exported(self, llama, tok):
        from repro.server import LiveServer, ServeOptions

        store = ModuleCacheStore()
        store.set_miss_fetcher(
            lambda key: (_ for _ in ()).throw(ConnectionResetError("down"))
        )
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        # Lazy: modules encode on first demand, so serving must consult
        # the (raising) miss fetcher before falling back to the encode.
        pc.register_schema(SCHEMA, eager=False)
        server = LiveServer(pc, ServeOptions(store_sweep_interval_s=None))

        async def scenario():
            async with server:
                request = await server.submit(PROMPT, max_new_tokens=2)
                await request.wait()

        asyncio.run(scenario())
        errors = server.metrics.counter(
            "cache_miss_fetch_errors_total",
            "miss fetchers that raised, by exception type",
            reason="ConnectionResetError",
        ).value
        assert errors >= 1

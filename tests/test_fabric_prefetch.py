"""Predictive prefetch: demand mining, byte budget, planning, scheduling.

The prefetcher's contract: pull a module up a tier *before* its next
predicted arrival, never exceed the bytes/s budget, never displace
resident entries, and only run on scheduler iterations with spare
prefill capacity (so prefetch cannot starve decode).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.persist import save_store
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.fabric import (
    ByteBudget,
    PlacementEngine,
    PredictivePrefetcher,
)
from repro.llm.kv import ModuleKV
from repro.serving.traces import SchemaProfile, schema_interarrivals, synthesize_trace


def _module_kv(seed: int, T: int = 6) -> ModuleKV:
    rng = np.random.default_rng(seed)
    shape = (3, 2, T, 4)
    return ModuleKV.from_arenas(
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        np.arange(T, dtype=np.int64),
    )


class TestByteBudget:
    def test_burst_then_refill(self):
        budget = ByteBudget(bytes_per_s=100.0, burst_bytes=100.0)
        assert budget.take(80, now=0.0)
        assert not budget.take(80, now=0.0)  # only 20 left
        assert budget.denied == 1
        assert budget.take(80, now=1.0)  # refilled 100, capped at burst
        assert budget.granted_bytes == 160

    def test_refill_capped_at_burst(self):
        budget = ByteBudget(bytes_per_s=100.0, burst_bytes=50.0)
        budget.take(50, now=0.0)
        assert budget.available(now=100.0) == 50.0  # not 10_000

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            ByteBudget(bytes_per_s=0.0)


class TestTraceMining:
    def test_schema_interarrivals_means_per_schema(self):
        profiles = [
            SchemaProfile(name="hot", module_tokens=32, uncached_mean=8,
                          decode_mean=4, weight=4.0),
            SchemaProfile(name="cold", module_tokens=32, uncached_mean=8,
                          decode_mean=4, weight=0.5),
        ]
        trace = synthesize_trace(profiles, 50.0, 4.0, seed=7)
        gaps = schema_interarrivals(trace)
        assert set(gaps) <= {"hot", "cold"}
        assert all(g > 0 for g in gaps.values())
        # The popular schema arrives more often: smaller mean gap.
        assert gaps["hot"] < gaps["cold"]

    def test_singleton_schemas_omitted(self):
        profiles = [SchemaProfile(name="once", module_tokens=32,
                                  uncached_mean=8, decode_mean=4)]
        trace = synthesize_trace(profiles, 1.0, 0.5, seed=0)
        if len(trace) <= 1:
            assert schema_interarrivals(trace) == {}

    def test_seed_from_trace_installs_priors(self):
        profiles = [SchemaProfile(name="s", module_tokens=32,
                                  uncached_mean=8, decode_mean=4)]
        trace = synthesize_trace(profiles, 20.0, 2.0, seed=3)
        prefetcher = PredictivePrefetcher(PlacementEngine())
        prefetcher.seed_from_trace(trace)
        assert prefetcher.schema_priors["s"] == pytest.approx(
            schema_interarrivals(trace)["s"]
        )


class TestPlanning:
    def _prefetcher(self, **kwargs):
        placement = PlacementEngine(horizon_s=2.0)
        return placement, PredictivePrefetcher(placement, **kwargs)

    def test_due_key_planned_within_lead_window(self):
        placement, prefetcher = self._prefetcher(bytes_per_s=1e9)
        key = CacheKey("s", "m")
        placement.record_demand(key, 0.0)
        placement.record_demand(key, 5.0)  # gap 5s
        # 1s before the predicted arrival at t=10: inside the 2s lead.
        actions = prefetcher.plan({key: ("snapshot", 1024)}, now=9.0)
        assert [a.key for a in actions] == [key]
        # Far ahead of the predicted arrival: not due yet.
        assert prefetcher.plan({key: ("snapshot", 1024)}, now=5.5) == []

    def test_stale_pattern_not_extrapolated(self):
        placement, prefetcher = self._prefetcher(bytes_per_s=1e9)
        key = CacheKey("s", "m")
        placement.record_demand(key, 0.0)
        placement.record_demand(key, 1.0)  # gap 1s
        # Dozens of silent gaps later: the cadence changed, skip it.
        assert prefetcher.plan({key: ("snapshot", 1024)}, now=60.0) == []
        assert prefetcher.skipped_cold == 1

    def test_schema_prior_covers_unseen_keys(self):
        placement, prefetcher = self._prefetcher(bytes_per_s=1e9)
        prefetcher.seed_interarrival("s", 1.0)
        key = CacheKey("s", "m")
        placement.record_demand(key, 10.0)  # one hit: no own estimate yet
        actions = prefetcher.plan({key: ("peer", 2048)}, now=10.5)
        assert [a.key for a in actions] == [key]
        assert actions[0].source == "peer"

    def test_budget_charges_most_demanded_first(self):
        placement, prefetcher = self._prefetcher(bytes_per_s=1000.0)
        fast, slow = CacheKey("s", "fast"), CacheKey("s", "slow")
        # Both freshly seen at t=8; fast repeats every 0.5s, slow every 1.5s.
        for i in range(5):
            placement.record_demand(fast, 6.0 + 0.5 * i)
            placement.record_demand(slow, 2.0 + 1.5 * i)
        now = 8.0
        candidates = {slow: ("snapshot", 800), fast: ("snapshot", 800)}
        actions = prefetcher.plan(candidates, now)
        # Budget fits one pull: the shorter-gap key wins, dict order loses.
        assert [a.key for a in actions] == [fast]
        assert prefetcher.skipped_budget == 1
        assert prefetcher.budget.denied == 1


class TestStoreMaintenance:
    def test_snapshot_prefetch_lands_in_dram(self, tmp_path):
        seed = ModuleCacheStore()
        key = CacheKey("s", "m")
        seed.put(key, _module_kv(1))
        save_store(seed, tmp_path)

        t = [0.0]
        store = ModuleCacheStore(snapshot_dir=tmp_path, clock=lambda: t[0])
        # Build a 1s cadence without leaving the entry resident.
        for i in range(4):
            t[0] = float(i)
            store.placement.record_demand(key, t[0])
        t[0] = 3.5  # next arrival predicted at 4.0, inside the lead
        report = store.maintenance()
        assert report["prefetched"] == 1
        # Prefetches land in the DRAM tier, not the fast tier: predictions
        # must never evict resident demand-fetched entries.
        assert store.cpu.peek(key) is not None
        assert store.gpu.peek(key) is None
        # Now the demand fetch is a cheap DRAM hit, no page-in needed.
        result = store.fetch(key)
        assert result is not None and result.source == "cpu"

    def test_peer_prefetch_issued_through_hook(self):
        issued = []
        store = ModuleCacheStore()
        store.peer_prefetch = lambda key: issued.append(key) or True  # the worker's wiring
        key = CacheKey("s", "m")
        # Peer candidates need a size hint, which only residency leaves
        # behind: install once, evict by hand, then predict.
        store.put(key, _module_kv(2))
        store.fetch(key)
        store.gpu.remove(key)
        t0 = store.clock()
        for i in range(3):
            store.placement.record_demand(key, t0 + float(i))
        report = store.maintenance(now=t0 + 2.5)
        assert report["peer_issued"] == 1
        assert issued == [key]

    def test_maintenance_without_candidates_is_quiet(self):
        store = ModuleCacheStore()
        report = store.maintenance()
        assert report == {"prefetched": 0, "peer_issued": 0}
        assert store.fabric_snapshot()["maintenance_runs"] == 1


class TestSchedulerHook:
    class _Stream:
        """Minimal duck-typed stream: prefills `n` tokens, then finishes
        (a zero-token budget) or, ``finishes=False``, holds its slot."""

        def __init__(self, n, finishes=True):
            self.finishes = finishes
            self.prefill_remaining = n
            self.decoding = False
            self.done = False
            self.output_ids = []
            self.max_new_tokens = 0

        cache = None

        def prefill_chunk(self, budget):
            rows = [0] * min(budget, self.prefill_remaining)
            return rows, rows

        def prefill_done(self, rows, logits, seconds):
            self.prefill_remaining -= rows
            if self.prefill_remaining == 0:
                self.done = self.finishes

        def next_token(self):  # the first token; the stream never decodes
            return 0, True

        def finish(self):
            return "done"

        def abort(self):
            pass

    def _scheduler(self, maintenance, prefill_tokens, chunk=8, finishes=True):
        from repro.server.request import LiveRequest
        from repro.server.scheduler import ContinuousScheduler

        stream = self._Stream(prefill_tokens, finishes)

        class _PC:
            schemas = {}

            def open_stream(self, prompt, max_new_tokens=0):
                return stream

            def forward(self, tokens, positions, segments, logits=True):
                return [None] * len(segments)

        _PC.model = _PC()

        scheduler = ContinuousScheduler(
            _PC(), prefill_chunk_tokens=chunk, maintenance=maintenance
        )
        request = LiveRequest(request_id="r1", prompt="p", schema="s",
                              max_new_tokens=0, submitted_at=0.0)
        return scheduler, request

    def test_runs_only_with_spare_prefill_capacity(self):
        ticks = []
        scheduler, request = self._scheduler(
            lambda: ticks.append(1), prefill_tokens=20, chunk=8, finishes=False
        )
        scheduler.iterate([request])  # full chunk consumed: no maintenance
        assert ticks == []
        scheduler.iterate([])  # full chunk again (12 -> 4 remaining... )
        scheduler.iterate([])  # 4 < 8: spare capacity, maintenance runs
        assert len(ticks) == 1
        scheduler.iterate([])  # idle: spare capacity every time now
        assert len(ticks) == 2
        assert scheduler.maintenance_runs == 2

    def test_skipped_when_a_stream_just_finished(self):
        """Spare capacity, but the stream finished at its prefill: its
        caller's next request must not wait behind upkeep. The next
        iteration, with nothing finishing, runs it."""
        ticks = []
        scheduler, request = self._scheduler(
            lambda: ticks.append(1), prefill_tokens=4, chunk=8
        )
        outcome = scheduler.iterate([request])
        assert outcome.completed == 1 and scheduler.active == 0
        assert ticks == []
        scheduler.iterate([])
        assert len(ticks) == 1

    def test_no_hook_no_overhead(self):
        scheduler, request = self._scheduler(None, prefill_tokens=4)
        scheduler.iterate([request])
        assert scheduler.maintenance_runs == 0

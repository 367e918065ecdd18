"""Cluster integration: affinity routing, peer fetch, failover, drain.

These tests run real engines (tiny llama) on real loopback sockets; the
cluster's workers share read-only model weights, so any two workers —
and a standalone :class:`PromptCache` — must produce byte-identical
outputs for the same prompt.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.engine import PromptCache
from repro.cache.storage import CacheKey
from repro.cluster import ClusterRouter, ClusterWorker, DEAD, NoWorkerAvailable
from repro.cluster.health import HeartbeatMonitor
from repro.cluster.router import module_tags, routing_key
from repro.pml.parser import parse_prompt
from repro.server.runtime import ServeOptions

SCHEMA_A = (
    '<schema name="alpha"><module name="ctx">the quick brown fox jumps'
    "</module></schema>"
)
SCHEMA_B = (
    '<schema name="beta"><module name="ctx">miami beaches nightlife surf'
    "</module></schema>"
)


def prompt(schema: str, i: int) -> str:
    return f'<prompt schema="{schema}"><ctx/> q{i}</prompt>'


def run(coro):
    return asyncio.run(coro)


def make_cluster(llama, tok, n=2, **router_kwargs):
    options = ServeOptions(queue_delay_budget_s=None)
    workers = [
        ClusterWorker(
            f"w{i}", llama, tok, options=options, heartbeat_interval_s=0.02,
        )
        for i in range(n)
    ]
    router_kwargs.setdefault(
        "monitor", HeartbeatMonitor(heartbeat_interval_s=0.02, miss_limit=4)
    )
    router_kwargs.setdefault("watchdog_interval_s", 0.02)
    router = ClusterRouter(workers, **router_kwargs)
    router.register_schema(SCHEMA_A)
    router.register_schema(SCHEMA_B)
    return router


class TestRoutingKey:
    def test_key_is_schema_plus_sorted_imports(self):
        node = parse_prompt(
            '<prompt schema="s"><b/><a/> tail text</prompt>'
        )
        assert routing_key(node) == "s|a,b"

    def test_nested_imports_counted(self):
        node = parse_prompt('<prompt schema="s"><outer><inner/></outer></prompt>')
        assert routing_key(node) == "s|inner,outer"

    def test_text_does_not_change_key(self):
        a = routing_key(parse_prompt('<prompt schema="s"><m/> one</prompt>'))
        b = routing_key(parse_prompt('<prompt schema="s"><m/> two</prompt>'))
        assert a == b

    def test_module_tags_are_schema_qualified(self):
        node = parse_prompt('<prompt schema="s"><b/><a/> tail</prompt>')
        assert module_tags(node) == frozenset({"s/a/solo", "s/b/solo"})

    def test_module_tags_match_store_keys(self):
        # The tags the router matches against residency advertisements
        # must be exactly what a worker's store advertises for the same
        # modules, or residency routing silently never fires.
        node = parse_prompt('<prompt schema="alpha"><ctx/> q</prompt>')
        assert module_tags(node) == {CacheKey("alpha", "ctx").tag()}


class TestAffinityAndPlane:
    def test_same_key_lands_on_same_worker(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                for i in range(4):
                    await router.serve(prompt("alpha", i), max_new_tokens=2)
                return router.snapshot()

        snap = run(scenario())
        placed = {
            series: value
            for series, value in snap["router"]["counters"].items()
            if series.startswith("cluster_requests_total")
        }
        # All four requests share one routing key → exactly one worker.
        assert sorted(placed.values()) == [4.0]

    def test_a_zero_budget_passes_through(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                return await router.serve(prompt("alpha", 0), max_new_tokens=0)

        assert run(scenario()).output_ids == []

    def test_spilled_worker_fetches_from_peer(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                home_name = router.ring.node_for(router.route_key(prompt("alpha", 0)))
                home = router.workers[home_name]
                (other,) = [w for w in router.workers.values() if w is not home]
                # Warm the home worker: it pays the encode.
                await router.serve(prompt("alpha", 0), max_new_tokens=2)
                # Simulate spill: drive the *other* worker directly with
                # the same schema. Its store is cold — every module need
                # is cross-worker and must be satisfied by peer fetch.
                results = []
                for i in range(5):
                    results.append(
                        await other.server.serve(prompt("alpha", i), max_new_tokens=2)
                    )
                reference = await home.server.serve(prompt("alpha", 0), max_new_tokens=2)
                return other, results, reference

        other, results, reference = run(scenario())
        counters = other.metrics.snapshot()["counters"]
        hits = counters.get('cluster_peer_fetch_total{outcome="hit"}', 0)
        misses = counters.get('cluster_peer_fetch_total{outcome="miss"}', 0)
        # Acceptance: ≥ 80% of cross-worker module needs satisfied by
        # peer fetch (here: all of them — home holds every module).
        assert hits >= 1
        assert hits / max(1, hits + misses) >= 0.8
        assert counters["cluster_reencode_avoided_tokens_total"] > 0
        # Peer-fetched KV serves byte-identically.
        assert results[0].output_ids == reference.output_ids

    def test_peer_fetched_output_matches_single_engine(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                outs = []
                for i in range(3):
                    outs.append(await router.serve(prompt("beta", i), max_new_tokens=4))
                # Same prompts again, forced through the non-home worker
                # so its answer rides on peer-fetched module KV.
                home = router.ring.node_for(router.route_key(prompt("beta", 0)))
                (other,) = [
                    w for n, w in router.workers.items() if n != home
                ]
                spilled = [
                    await other.server.serve(prompt("beta", i), max_new_tokens=4)
                    for i in range(3)
                ]
                return outs, spilled

        outs, spilled = run(scenario())
        pc = PromptCache(llama, tok)
        pc.register_schema(SCHEMA_B)
        for i, (routed, spill) in enumerate(zip(outs, spilled)):
            reference = pc.serve(prompt("beta", i), max_new_tokens=4)
            assert routed.output_ids == reference.output_ids
            assert spill.output_ids == reference.output_ids

    def test_snapshot_aggregates(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                await router.serve(prompt("alpha", 0), max_new_tokens=2)
                await router.serve(prompt("beta", 0), max_new_tokens=2)
                snap = router.snapshot()
                prom = router.prometheus()
            return snap, prom

        snap, prom = run(scenario())
        gauges = snap["router"]["gauges"]
        assert 'cluster_worker_queue_depth{worker="w0"}' in gauges
        assert gauges['server_requests_total{outcome="completed"}'] == 2.0
        assert "cluster_worker_queue_depth" in prom
        assert set(snap["health"]) == {"w0", "w1"}
        assert sum(snap["ring"].values()) == pytest.approx(1.0)


class TestFailureHandling:
    def test_kill_one_worker_loses_no_accepted_requests(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                victim = router.ring.node_for(router.route_key(prompt("alpha", 0)))
                tasks = [
                    asyncio.create_task(
                        router.serve(prompt("alpha", i), max_new_tokens=2)
                    )
                    for i in range(8)
                ]
                # Let the submits land on the victim's queue, then pull
                # the rug while most are still queued.
                await asyncio.sleep(0.01)
                await router.kill_worker(victim)
                results = await asyncio.gather(*tasks)
                snap = router.snapshot()
            return victim, results, snap

        victim, results, snap = run(scenario())
        # Zero lost accepted requests: every waiter got a real result.
        assert len(results) == 8
        assert all(r.output_ids for r in results)
        # Deterministic engines → failover answers match a single engine.
        pc = PromptCache(llama, tok)
        pc.register_schema(SCHEMA_A)
        for i, result in enumerate(results):
            reference = pc.serve(prompt("alpha", i), max_new_tokens=2)
            assert result.output_ids == reference.output_ids
        assert snap["health"][victim]["state"] == DEAD
        counters = snap["router"]["counters"]
        assert counters.get("cluster_rebalance_total", 0) == 1

    def test_watchdog_detects_silent_worker(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                victim = router.workers["w1"]
                # Silence the heartbeat without stopping the worker — the
                # failure mode where a process hangs rather than exits.
                victim._heartbeat_task.cancel()
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if router.monitor.state("w1") == DEAD:
                        break
                state = router.monitor.state("w1")
                in_ring = "w1" in router.ring
                # The cluster still serves from the survivor.
                result = await router.serve(prompt("alpha", 0), max_new_tokens=2)
            return state, in_ring, result

        state, in_ring, result = run(scenario())
        assert state == DEAD
        assert not in_ring
        assert result.output_ids

    def test_all_workers_dead_raises(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                await router.kill_worker("w0")
                await router.kill_worker("w1")
                with pytest.raises(NoWorkerAvailable):
                    await router.serve(prompt("alpha", 0), max_new_tokens=2)

        run(scenario())

    def test_dead_worker_beat_does_not_resurrect(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                await router.kill_worker("w0")
                router.monitor.beat("w0", "up", 0)
                return router.monitor.state("w0")

        assert run(scenario()) == DEAD


class TestDrain:
    def test_graceful_stop_completes_accepted_work(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            await router.start()
            tasks = [
                asyncio.create_task(router.serve(prompt("beta", i), max_new_tokens=2))
                for i in range(6)
            ]
            await asyncio.sleep(0.01)
            await router.stop(drain=True)
            results = await asyncio.gather(*tasks)
            return results

        results = run(scenario())
        assert len(results) == 6
        assert all(r.output_ids for r in results)


class TestRawAffinity:
    """Discovered-prefix affinity for schema-free raw text."""

    def make_discovering_cluster(self, llama, tok, n=2):
        from repro.reuse import DiscoveryConfig

        options = ServeOptions(queue_delay_budget_s=None)
        workers = [
            ClusterWorker(
                f"w{i}", llama, tok, options=options,
                heartbeat_interval_s=0.02,
                discovery=DiscoveryConfig(min_hits=2, min_tokens=8),
            )
            for i in range(n)
        ]
        return ClusterRouter(
            workers,
            monitor=HeartbeatMonitor(heartbeat_interval_s=0.02, miss_limit=4),
            watchdog_interval_s=0.02,
        )

    def test_shared_prefix_routes_to_one_worker(self, llama, tok):
        # Longer than raw_affinity_tokens, so the fallback prefix bucket
        # sees only shared tokens.
        shared = "the quick brown fox jumps over the lazy dog " * 4

        async def scenario():
            router = self.make_discovering_cluster(llama, tok)
            async with router:
                keys = {
                    router.route_key_text(shared + f"user {i}") for i in range(4)
                }
                # Mining pass: the key may migrate once, when promotion
                # extends the affinity prefix beyond the fallback bucket.
                for i in range(4):
                    await router.serve_text(shared + f"user {i}", max_new_tokens=2)
                before = router.snapshot()
                stable = {
                    router.route_key_text(shared + f"user {i}") for i in range(4, 8)
                }
                for i in range(4, 8):
                    await router.serve_text(shared + f"user {i}", max_new_tokens=2)
                return keys, stable, before, router.snapshot()

        keys, stable, before, after = run(scenario())

        def placements(snap):
            return {
                series: value
                for series, value in snap["router"]["counters"].items()
                if series.startswith("cluster_requests_total")
            }

        # Same token prefix → same ring key, before and after discovery.
        assert len(keys) == 1
        assert len(stable) == 1
        # Post-promotion traffic all lands on one worker.
        deltas = {
            series: after_v - placements(before).get(series, 0.0)
            for series, after_v in placements(after).items()
        }
        assert sorted(v for v in deltas.values() if v > 0) == [4.0]

    def test_discovered_match_makes_key_suffix_free(self, llama, tok):
        # Short prompts: the whole text fits inside the fallback bucket,
        # so pre-discovery keys depend on the unique suffix.
        shared = "the quick brown fox jumps over the lazy dog " * 2

        async def scenario():
            router = self.make_discovering_cluster(llama, tok, n=1)
            async with router:
                before_x = router.route_key_text(shared + "user x")
                before_y = router.route_key_text(shared + "user y")
                for i in range(3):  # promote the shared prefix on w0
                    await router.serve_text(shared + f"user {i}", max_new_tokens=2)
                worker = router.workers["w0"]
                assert worker.pc.discovery.stats.promotions >= 1
                after_x = router.route_key_text(shared + "user x")
                after_y = router.route_key_text(shared + "user y")
                return before_x, before_y, after_x, after_y

        before_x, before_y, after_x, after_y = run(scenario())
        assert before_x.startswith("__raw__|")
        # Pre-discovery the suffix leaks into the bucket; once the miner
        # promotes, the key is exactly the discovered prefix — identical
        # across users, so their requests co-locate.
        assert before_x != before_y
        assert after_x == after_y

    def test_raw_output_matches_standalone_engine(self, llama, tok):
        shared = "paris museums cafes architecture " * 2
        texts = [shared + f"user {i}" for i in range(3)]

        async def scenario():
            router = self.make_discovering_cluster(llama, tok)
            async with router:
                return [
                    await router.serve_text(text, max_new_tokens=3)
                    for text in texts
                ] + [await router.serve_text(texts[0], max_new_tokens=3)]

        results = run(scenario())
        solo = PromptCache(llama, tok)
        for text, result in zip(texts + [texts[0]], results):
            expected = solo.serve_text(text, max_new_tokens=3, observe=False)
            assert result.output_ids == expected.output_ids

    def test_dead_workers_excluded_from_raw_routing(self, llama, tok):
        async def scenario():
            router = self.make_discovering_cluster(llama, tok)
            async with router:
                await router.kill_worker("w0")
                return await router.serve_text(
                    "answer the question using the documents", max_new_tokens=2
                )

        result = run(scenario())
        assert result.output_ids


class TestResidencyRouting:
    """Residency beats the ring: route to workers already holding the KV."""

    async def _warm_other(self, router, schema="alpha"):
        """Warm the non-home worker directly and wait until its heartbeat
        advertises the module, returning (home_name, other_name)."""
        home = router.ring.node_for(router.route_key(prompt(schema, 0)))
        (other,) = [n for n in router.workers if n != home]
        await router.workers[other].server.serve(
            prompt(schema, 0), max_new_tokens=2
        )
        tag = CacheKey(schema, "ctx").tag()
        for _ in range(100):
            await asyncio.sleep(0.02)
            if tag in router.monitor.workers[other].resident:
                return home, other
        raise AssertionError(f"{other} never advertised {tag}")

    def test_resident_worker_beats_ring_home(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                home, other = await self._warm_other(router)
                result = await router.serve(prompt("alpha", 1), max_new_tokens=2)
                return home, other, result, router.snapshot()

        home, other, result, snap = run(scenario())
        counters = snap["router"]["counters"]
        # The ring prefers `home`, but `other` already holds alpha/ctx —
        # residency wins, saving a peer fetch or re-encode.
        assert counters[f'cluster_requests_total{{worker="{other}"}}'] == 1.0
        assert f'cluster_requests_total{{worker="{home}"}}' not in counters
        assert counters["cluster_residency_routed_total"] >= 1
        assert counters["cluster_residency_over_ring_total"] >= 1
        # Residency placement serves byte-identically to a single engine.
        pc = PromptCache(llama, tok)
        pc.register_schema(SCHEMA_A)
        reference = pc.serve(prompt("alpha", 1), max_new_tokens=2)
        assert result.output_ids == reference.output_ids

    def test_health_snapshot_reports_residency(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                home, other = await self._warm_other(router)
                return other, router.snapshot()

        other, snap = run(scenario())
        assert snap["health"][other]["resident"] >= 1

    def test_fallback_to_ring_when_resident_worker_dead(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                home, other = await self._warm_other(router)
                await router.kill_worker(other)
                # The only resident worker is gone: the router must fall
                # back to consistent-hash placement on the survivor.
                result = await router.serve(prompt("alpha", 1), max_new_tokens=2)
                return home, result, router.snapshot()

        home, result, snap = run(scenario())
        counters = snap["router"]["counters"]
        assert counters[f'cluster_requests_total{{worker="{home}"}}'] == 1.0
        assert counters.get("cluster_residency_routed_total", 0) == 0
        pc = PromptCache(llama, tok)
        pc.register_schema(SCHEMA_A)
        reference = pc.serve(prompt("alpha", 1), max_new_tokens=2)
        assert result.output_ids == reference.output_ids

    def test_failover_from_resident_worker_loses_nothing(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                home, other = await self._warm_other(router)
                tasks = [
                    asyncio.create_task(
                        router.serve(prompt("alpha", i), max_new_tokens=2)
                    )
                    for i in range(6)
                ]
                # Requests pile onto the resident worker; kill it while
                # most are still queued — failover must drain zero-loss.
                await asyncio.sleep(0.01)
                await router.kill_worker(other)
                results = await asyncio.gather(*tasks)
                return results

        results = run(scenario())
        assert len(results) == 6
        assert all(r.output_ids for r in results)
        pc = PromptCache(llama, tok)
        pc.register_schema(SCHEMA_A)
        for i, result in enumerate(results):
            reference = pc.serve(prompt("alpha", i), max_new_tokens=2)
            assert result.output_ids == reference.output_ids


class TestFabricCluster:
    """Every worker's store — the whole tier walk, placement and peer
    prefetch — inside the cluster plane."""

    def test_fabric_workers_serve_identically(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                outs = [
                    await router.serve(prompt("beta", i), max_new_tokens=3)
                    for i in range(3)
                ]
                for _ in range(100):  # wait out one heartbeat interval
                    await asyncio.sleep(0.02)
                    if any(
                        h.resident for h in router.monitor.workers.values()
                    ):
                        break
                return outs, router.snapshot()

        outs, snap = run(scenario())
        pc = PromptCache(llama, tok)
        pc.register_schema(SCHEMA_B)
        for i, result in enumerate(outs):
            reference = pc.serve(prompt("beta", i), max_new_tokens=3)
            assert result.output_ids == reference.output_ids
        # The serving worker advertises its fabric residency upstream.
        assert any(h["resident"] >= 1 for h in snap["health"].values())

    def test_peer_prefetch_installs_into_dram_tier(self, llama, tok):
        async def scenario():
            router = make_cluster(llama, tok)
            async with router:
                # Warm the home worker through the router, then issue a
                # predictive pull on the other: the fabric's peer hook
                # rides the same plane as demand fetch, fire-and-forget.
                await router.serve(prompt("alpha", 0), max_new_tokens=2)
                home = router.ring.node_for(router.route_key(prompt("alpha", 0)))
                (other,) = [
                    w for n, w in router.workers.items() if n != home
                ]
                key = CacheKey("alpha", "ctx")
                assert other.store.peer_prefetch(key)
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if other.store.cpu.peek(key) is not None:
                        break
                return other, key

        other, key = run(scenario())
        # Landed in DRAM (never the fast tier: predictions must not evict
        # resident entries), and the plane booked the prefetch.
        assert other.store.cpu.peek(key) is not None
        assert other.store.gpu.peek(key) is None
        counters = other.metrics.snapshot()["counters"]
        assert counters["cluster_peer_prefetch_total"] == 1

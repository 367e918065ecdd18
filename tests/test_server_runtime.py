"""Live serving runtime: admission, deadlines, co-admission, metrics.

Policy tests run against a stub engine with controllable service time so
they are deterministic — ``max_inflight=1`` serves requests one after
another, ``service_s`` apart; one integration class drives the real
:class:`PromptCache` to check outputs match the direct path.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.engine import PromptCache
from repro.pml.chat import PLAIN_TEMPLATE
from repro.pml.errors import UnknownSchemaError
from repro.server import (
    DeadlineExceeded,
    LiveServer,
    Overloaded,
    ServeOptions,
    ServerClosed,
)
from repro.server.request import DONE, EXPIRED, REJECTED
from repro.server.runtime import DEFAULT_MAX_NEW_TOKENS
from tests.stubs import StubEngine


def run(coro):
    return asyncio.run(coro)


def two_tokens(serial, budget):
    return [1, 2]


def prompt(schema="a", i=0):
    return f'<prompt schema="{schema}"><context/> q{i}</prompt>'


class TestAdmission:
    def test_shed_on_queue_depth(self):
        async def main():
            engine = StubEngine(service_s=0.05)
            server = LiveServer(
                engine,
                ServeOptions(max_queue_depth=2, max_inflight=1,
                             queue_delay_budget_s=None),
            )
            await server.start()
            # No awaits between submits: the worker cannot drain, so the
            # third submission must hit the depth bound.
            r1 = await server.submit(prompt(i=1))
            r2 = await server.submit(prompt(i=2))
            with pytest.raises(Overloaded) as err:
                await server.submit(prompt(i=3))
            assert err.value.reason == "queue_depth"
            assert err.value.queue_depth == 2
            await server.stop(drain=True)
            assert r1.state == DONE and r2.state == DONE
            snap = server.snapshot()
            assert snap["counters"]['server_requests_total{outcome="rejected"}'] == 1
            assert snap["counters"]['server_rejections_total{reason="queue_depth"}'] == 1

        run(main())

    def test_shed_on_estimated_queue_delay(self):
        async def main():
            engine = StubEngine(service_s=0.05)
            server = LiveServer(
                engine,
                ServeOptions(max_queue_depth=100, max_inflight=1,
                             queue_delay_budget_s=0.01),
            )
            await server.start()
            await server.submit(prompt(i=1))  # estimate 0 → admitted
            with pytest.raises(Overloaded) as err:
                await server.submit(prompt(i=2))  # estimate 0.05 > 0.01
            assert err.value.reason == "queue_delay"
            assert err.value.estimated_delay_s > 0.01
            await server.stop()

        run(main())

    def test_unknown_schema_rejected_typed(self):
        async def main():
            server = LiveServer(StubEngine())
            await server.start()
            with pytest.raises(UnknownSchemaError):
                await server.submit(prompt(schema="ghost"))
            await server.stop()
            assert server.trace_log[-1].state == REJECTED
            snap = server.snapshot()
            assert (
                snap["counters"]['server_rejections_total{reason="unknown_schema"}']
                == 1
            )

        run(main())

    def test_closed_server_refuses(self):
        async def main():
            server = LiveServer(StubEngine())
            with pytest.raises(ServerClosed):
                await server.submit(prompt())

        run(main())


class TestDeadlines:
    def test_deadline_expires_mid_queue(self):
        async def main():
            engine = StubEngine(service_s=0.2)
            server = LiveServer(
                engine,
                ServeOptions(max_inflight=1, queue_delay_budget_s=None),
            )
            await server.start()
            r1 = await server.submit(prompt(i=1))
            r2 = await server.submit(prompt(i=2), deadline_s=0.01)
            with pytest.raises(DeadlineExceeded):
                await r2.wait()
            assert r2.state == EXPIRED
            assert r2.result is None  # no compute was spent on it
            await r1.wait()
            await server.stop()
            assert engine.prompts() == [prompt(i=1)]  # r2 never admitted
            snap = server.snapshot()
            assert snap["counters"]['server_requests_total{outcome="expired"}'] == 1

        run(main())

    def test_no_deadline_waits_out_long_queues(self):
        async def main():
            engine = StubEngine(service_s=0.02)
            server = LiveServer(
                engine, ServeOptions(max_inflight=1, queue_delay_budget_s=None)
            )
            await server.start()
            requests = [await server.submit(prompt(i=i)) for i in range(4)]
            for r in requests:
                await r.wait()
            await server.stop()
            assert all(r.state == DONE for r in requests)

        run(main())


class TestBatching:
    def test_same_schema_batches_together(self):
        """Requests waiting together are admitted into one iteration, in
        arrival order — the batch is the set of sequences in flight, so
        a different schema joins it instead of splitting it."""

        async def main():
            engine = StubEngine()
            server = LiveServer(engine, ServeOptions(queue_delay_budget_s=None))
            await server.start()
            requests = [
                await server.submit(prompt(schema=schema, i=i))
                for i, schema in enumerate("aaab")
            ]
            for r in requests:
                await r.wait()
            await server.stop()
            assert all(r.batch_size == 4 for r in requests)
            assert engine.prompts() == [r.prompt for r in requests]

        run(main())


class TestLifecycle:
    def test_streaming_yields_output_ids(self):
        async def main():
            server = LiveServer(
                StubEngine(tokens=two_tokens), ServeOptions(queue_delay_budget_s=None)
            )
            await server.start()
            request = await server.submit(prompt())
            tokens = [t async for t in request.stream()]
            await server.stop()
            assert tokens == [1, 2]
            assert (await request.wait()).output_ids == [1, 2]

        run(main())

    def test_stop_without_drain_fails_queued(self):
        async def main():
            engine = StubEngine(service_s=0.1)
            server = LiveServer(
                engine, ServeOptions(max_inflight=1, queue_delay_budget_s=None)
            )
            await server.start()
            # No await between submit and stop: the worker never gets the
            # loop, so both requests are still queued when we shut down.
            r1 = await server.submit(prompt(i=1))
            r2 = await server.submit(prompt(i=2))
            await server.stop(drain=False)
            for r in (r1, r2):
                with pytest.raises(ServerClosed):
                    await r.wait()
            assert engine.opened == []  # nothing was admitted

        run(main())

    def test_context_manager_drains(self):
        async def main():
            engine = StubEngine(tokens=two_tokens)
            async with LiveServer(
                engine, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                result = await server.serve(prompt())
            assert result.output_ids == [1, 2]

        run(main())

    def test_trace_records_cover_every_outcome(self):
        async def main():
            engine = StubEngine(service_s=0.05, tokens=two_tokens)
            server = LiveServer(
                engine,
                ServeOptions(max_inflight=1, max_queue_depth=2,
                             queue_delay_budget_s=None),
            )
            await server.start()
            await server.submit(prompt(i=1))
            await server.submit(prompt(i=2), deadline_s=0.01)
            with pytest.raises(Overloaded):
                await server.submit(prompt(i=3))
            await server.stop(drain=True)
            states = {r.state for r in server.trace_log}
            assert states == {DONE, EXPIRED, REJECTED}
            done = next(r for r in server.trace_log if r.state == DONE)
            assert done.ttft_s is not None and done.ttft_s > 0
            assert done.output_tokens == 2

        run(main())


class TestMetricsCorrectness:
    def test_counters_add_up(self):
        async def main():
            engine = StubEngine(tokens=two_tokens)
            server = LiveServer(engine, ServeOptions(queue_delay_budget_s=None))
            await server.start()
            requests = [await server.submit(prompt(i=i)) for i in range(5)]
            for r in requests:
                await r.wait()
            await server.stop()
            snap = server.snapshot()
            c = snap["counters"]
            assert c['server_requests_total{outcome="submitted"}'] == 5
            assert c['server_requests_total{outcome="completed"}'] == 5
            assert c["server_tokens_generated_total"] == 10  # 2 per request
            assert c['server_prompt_tokens_total{status="cached"}'] == 20
            assert c['server_prompt_tokens_total{status="uncached"}'] == 5
            hist = snap["histograms"]["server_ttft_seconds"]
            assert hist["count"] == 5
            assert hist["p95"] > 0
            prom = server.prometheus()
            assert "server_ttft_seconds_quantile" in prom
            assert "cache_evictions_total" in prom

        run(main())


class TestIntegration:
    """The runtime over the real engine must match the direct path."""

    SCHEMA = (
        '<schema name="trip">'
        "<module name=\"plan\">plan a trip lasting three days focus on food "
        "the quick brown fox jumps over the lazy dog</module>"
        "</schema>"
    )
    PROMPT = '<prompt schema="trip"><plan/> answer the question</prompt>'

    def test_live_output_matches_direct_serve(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)
        direct = pc.serve(self.PROMPT, max_new_tokens=4)

        async def main():
            async with LiveServer(
                pc, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                return await server.serve(self.PROMPT, max_new_tokens=4)

        live = run(main())
        assert live.output_ids == direct.output_ids
        assert live.cached_tokens > 0

    def test_a_zero_budget_stays_zero(self, llama, tok):
        """Only a budget left unset takes the default."""
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)
        direct = pc.serve(self.PROMPT, max_new_tokens=0)

        async def main():
            async with LiveServer(
                pc, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                zero = await server.serve(self.PROMPT, max_new_tokens=0)
                return zero, await server.serve(self.PROMPT)

        zero, unset = run(main())
        assert zero.output_ids == direct.output_ids == []
        assert len(unset.output_ids) == DEFAULT_MAX_NEW_TOKENS

    def test_live_batch_hits_cache(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)

        async def main():
            async with LiveServer(
                pc, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                requests = [
                    await server.submit(self.PROMPT, max_new_tokens=2)
                    for _ in range(4)
                ]
                for r in requests:
                    await r.wait()
                return server

        server = run(main())
        assert pc.store.gpu.stats.hit_rate > 0
        snap = server.snapshot()
        assert snap["gauges"]['cache_tier_hits{tier="gpu"}'] > 0

    def test_plan_cache_counters_reach_metrics(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)

        async def main():
            async with LiveServer(
                pc, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                await server.serve(self.PROMPT, max_new_tokens=1)
                await server.serve(self.PROMPT, max_new_tokens=1)
                return server, server.prometheus()

        server, prom = run(main())
        snap = server.snapshot()
        c = snap["counters"]
        assert c['plan_cache_events_total{event="miss"}'] == 1
        assert c['plan_cache_events_total{event="hit"}'] == 1
        assert c['plan_cache_events_total{event="invalidation"}'] == 0
        assert snap["gauges"]["plan_cache_hit_rate"] == 0.5
        assert 'plan_cache_events_total{event="hit"} 1' in prom

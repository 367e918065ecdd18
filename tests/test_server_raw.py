"""LiveServer schema-free raw path: submit_text → open_text_stream.

Stub-engine tests pin the dispatch (raw requests open text streams, PML
requests open PML streams, and the raw token accounting never picks up
PML traffic even when both share an iteration), that admission does no
engine work on the loop thread, and the discovery metrics
(discovered-token counters, reuse gauges). One integration class checks
the live raw path is byte-identical to the direct engine call.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.engine import PromptCache
from repro.pml.errors import PMLError
from repro.reuse import DiscoveryConfig
from repro.server import LiveServer, ServeOptions
from repro.server.loadgen import build_raw_prompts, run_raw_open_loop
from tests.stubs import StubEngine


def run(coro):
    return asyncio.run(coro)


class StubDiscovery:
    """Miner double: a fixed snapshot, and a ``match`` that must not be
    reached from the loop thread (the stub engine never calls it)."""

    PREFIX = "sys: you are helpful. "

    def match(self, ids) -> list[str]:
        raise AssertionError("discovery.match called outside the engine")

    def snapshot(self) -> dict:
        return {
            "trie_nodes": 3, "trie_tokens": 40, "trie_inserts": 5,
            "trie_lookups": 5, "trie_splits": 1, "trie_evictions": 0,
            "trie_ttl_evictions": 0, "modules": 1, "promotions": 1,
            "demotions": 0, "failed_promotions": 0,
            "observed_sequences": 5, "observed_tokens": 200,
            "last_promotion_error": None,
        }


class LoopTok:
    """Tokenizer double that must not be reached from the loop thread."""

    def encode(self, text: str) -> list[int]:
        raise AssertionError("tokenizer.encode called outside the engine")


def raw_engine(discovery=None) -> StubEngine:
    """Every result: tokens [1, 2], 6 cached + 4 uncached prompt tokens."""
    return StubEngine(
        schemas=("a",), tokens=lambda serial, budget: [1, 2],
        prompt_split=(6, 4), discovery=discovery, tokenizer=LoopTok(),
    )


OPTIONS = ServeOptions(queue_delay_budget_s=None)


class TestRawDispatch:
    def test_raw_goes_to_open_text_stream(self):
        engine = raw_engine()

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                result = await server.serve_text("hello raw", max_new_tokens=2)
                return result

        result = run(main())
        assert result.output_ids == [1, 2]
        assert engine.opened == [("raw", "hello raw")]

    def test_raw_and_pml_accounting_never_mixes(self):
        engine = raw_engine()

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                pml = await server.submit(
                    '<prompt schema="a">q</prompt>', max_new_tokens=2
                )
                raw = await server.submit_text("plain text", max_new_tokens=2)
                await pml.wait()
                await raw.wait()
                return pml, raw, server.snapshot()["counters"], server.trace_log

        pml, raw, counters, trace_log = run(main())
        # Both were in flight together, each through its own planner...
        assert pml.batch_size == raw.batch_size == 2
        assert sorted(engine.opened) == [
            ("pml", '<prompt schema="a">q</prompt>'), ("raw", "plain text")
        ]
        # ...and only the raw one reached the discovered-token series.
        assert counters['reuse_discovered_tokens_total{status="cached"}'] == 6
        assert counters['reuse_discovered_tokens_total{status="uncached"}'] == 4
        assert counters['server_prompt_tokens_total{status="cached"}'] == 12
        assert sorted(r.schema for r in trace_log) == ["__raw__", "a"]

    def test_submit_text_does_no_engine_work_on_the_loop(self):
        """Admission neither tokenizes nor matches: ``open_text_stream``
        does both, once, on the engine thread (the doubles above raise
        if the runtime reaches them)."""
        engine = raw_engine(discovery=StubDiscovery())

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                requests = [
                    await server.submit_text(
                        StubDiscovery.PREFIX + f"user {i}", max_new_tokens=2
                    )
                    for i in range(3)
                ]
                return [await request.wait() for request in requests]

        assert [r.output_ids for r in run(main())] == [[1, 2]] * 3
        assert len(engine.prompts("raw")) == 3

    def test_empty_text_rejected(self):
        engine = raw_engine()

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                with pytest.raises(PMLError):
                    await server.submit_text("   ")

        run(main())


class TestRawMetrics:
    def test_dedup_and_discovered_token_series(self):
        engine = raw_engine(discovery=StubDiscovery())

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                requests = [
                    await server.submit_text(
                        StubDiscovery.PREFIX + f"user {i}", max_new_tokens=2
                    )
                    for i in range(3)
                ]
                for request in requests:
                    await request.wait()
                return server.prometheus()

        prom = run(main())
        # No per-batch dedup series: raw requests are not dispatched in batches.
        assert "reuse_dedup" not in prom
        # Per-request discovered-cache token counters (6 cached + 4
        # uncached per stub result, 3 requests).
        assert 'reuse_discovered_tokens_total{status="cached"} 18' in prom
        assert 'reuse_discovered_tokens_total{status="uncached"} 12' in prom

    def test_reuse_gauges_exported_from_snapshot(self):
        engine = raw_engine(discovery=StubDiscovery())

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                await server.serve_text(
                    StubDiscovery.PREFIX + "user", max_new_tokens=2
                )
                return server.prometheus()

        prom = run(main())
        for family in (
            "reuse_trie_nodes 3", "reuse_trie_tokens 40", "reuse_modules 1",
            "reuse_promotions 1", "reuse_demotions 0",
            "reuse_discovered_hit_rate 0.6",
        ):
            assert family in prom, family

    def test_no_discovery_no_reuse_gauges(self):
        engine = raw_engine()

        async def main():
            async with LiveServer(engine, OPTIONS) as server:
                await server.serve_text("plain", max_new_tokens=2)
                return server.prometheus()

        prom = run(main())
        assert "reuse_trie_nodes" not in prom
        # Raw token counters still emitted — discovery-off raw traffic is
        # simply all-uncached in real engines.
        assert "reuse_discovered_tokens_total" in prom


class TestRawIntegration:
    """Live raw path over the real engine: byte-identical to direct."""

    def test_live_serve_text_matches_direct(self, llama, tok):
        pc_live = PromptCache(llama, tok)
        pc_live.attach_discovery(DiscoveryConfig(min_hits=2, min_tokens=8))
        pc_direct = PromptCache(llama, tok)
        prompts = build_raw_prompts(tok, 6, shared_tokens=32, suffix_tokens=8)

        async def main():
            async with LiveServer(
                pc_live, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                out = []
                for _ in range(2):
                    for text in prompts:
                        out.append(await server.serve_text(text, max_new_tokens=3))
                return out, server.prometheus()

        live, prom = run(main())
        direct = [
            pc_direct.serve_text(t, max_new_tokens=3, observe=False)
            for t in prompts
        ] * 1
        for result, expected in zip(live[: len(prompts)], direct):
            assert result.output_ids == expected.output_ids
        for result, expected in zip(live[len(prompts):], direct):
            assert result.output_ids == expected.output_ids
        assert pc_live.discovery.stats.promotions >= 1
        assert "reuse_discovered_hit_rate" in prom

    def test_run_raw_open_loop_reports(self, llama, tok):
        pc = PromptCache(llama, tok)
        pc.attach_discovery(DiscoveryConfig(min_hits=2, min_tokens=8))
        prompts = build_raw_prompts(tok, 6, shared_tokens=32, suffix_tokens=8)

        async def main():
            async with LiveServer(
                pc, ServeOptions(queue_delay_budget_s=None)
            ) as server:
                return await run_raw_open_loop(
                    server, prompts, max_new_tokens=2
                )

        report = run(main())
        assert report.completed == len(prompts)
        assert report.failed == 0 and report.rejected == 0
        assert report.cached_token_fraction > 0.0

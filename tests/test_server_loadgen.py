"""Seeded load generator: workload materialization and loop regimes."""

from __future__ import annotations

import asyncio

from repro.server import (
    LiveServer,
    ServeOptions,
    build_workload,
    run_open_loop,
)
from repro.serving import SchemaProfile, synthesize_trace
from tests.stubs import StubEngine

PROFILES = [
    SchemaProfile("a", module_tokens=30, uncached_mean=6, decode_mean=4, weight=2.0),
    SchemaProfile("b", module_tokens=20, uncached_mean=4, decode_mean=4, weight=1.0),
]


def run(coro):
    return asyncio.run(coro)


def stub_engine(service_s: float = 0.0) -> StubEngine:
    """Every result: 8 cached + 2 uncached prompt tokens."""
    return StubEngine(
        service_s, schemas=[p.name for p in PROFILES], prompt_split=(8, 2)
    )


class TestWorkload:
    def test_build_is_deterministic(self, tok):
        w1 = build_workload(PROFILES, tok, seed=3)
        w2 = build_workload(PROFILES, tok, seed=3)
        assert w1.schema_sources == w2.schema_sources
        assert build_workload(PROFILES, tok, seed=4).schema_sources != w1.schema_sources

    def test_module_sized_to_profile(self, tok):
        workload = build_workload(PROFILES, tok, seed=0)
        for profile in PROFILES:
            source = workload.schema_sources[profile.name]
            doc = source.split(">", 2)[2].rsplit("</module", 1)[0]
            assert len(tok.encode(doc)) >= profile.module_tokens

    def test_prompt_unique_per_request_and_stable(self, tok):
        workload = build_workload(PROFILES, tok, seed=0)
        p1 = workload.prompt_for("a", 1, uncached_tokens=6)
        p2 = workload.prompt_for("a", 2, uncached_tokens=6)
        assert p1 != p2
        assert workload.prompt_for("a", 1, uncached_tokens=6) == p1
        assert p1.startswith('<prompt schema="a">')


class TestOpenLoop:
    def test_all_complete_at_low_rate(self, tok):
        workload = build_workload(PROFILES, tok, seed=0)
        trace = synthesize_trace(PROFILES, rate_rps=50.0, duration_s=0.5, seed=0)

        async def main():
            async with LiveServer(
                stub_engine(), ServeOptions(queue_delay_budget_s=None)
            ) as server:
                return await run_open_loop(
                    server, workload, trace, time_scale=0.0
                )

        report = run(main())
        assert report.offered == len(trace)
        assert report.completed == report.submitted == len(trace)
        assert report.rejected == 0
        assert len(report.records) == report.submitted
        # stub serves 8 cached / 2 uncached tokens per request
        assert report.cached_token_fraction == 0.8
        assert report.throughput_rps > 0

    def test_sheds_when_arrivals_outrun_service(self, tok):
        workload = build_workload(PROFILES, tok, seed=0)
        trace = synthesize_trace(PROFILES, rate_rps=100.0, duration_s=0.5, seed=0)

        async def main():
            options = ServeOptions(
                max_queue_depth=2, max_inflight=1, queue_delay_budget_s=None
            )
            async with LiveServer(stub_engine(service_s=0.02), options) as server:
                return await run_open_loop(
                    server, workload, trace, time_scale=0.0
                )

        report = run(main())
        assert report.rejected > 0
        assert report.completed > 0
        assert report.completed + report.rejected + report.expired == len(trace)

    def test_deadlines_expire_in_open_loop(self, tok):
        workload = build_workload(PROFILES, tok, seed=0)
        trace = synthesize_trace(PROFILES, rate_rps=40.0, duration_s=0.5, seed=0)

        async def main():
            options = ServeOptions(
                max_queue_depth=1000, max_inflight=1, queue_delay_budget_s=None
            )
            async with LiveServer(stub_engine(service_s=0.05), options) as server:
                return await run_open_loop(
                    server, workload, trace, time_scale=0.0, deadline_s=0.01
                )

        report = run(main())
        assert report.expired > 0
        assert report.completed + report.expired + report.failed == report.submitted


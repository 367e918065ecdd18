"""Live serving runtime — measured TTFT under load (§6).

The asyncio runtime (`repro.server.LiveServer`) drives the real NumPy
engine with an open-loop Poisson trace. Reported per arrival rate:
measured TTFT percentiles, shed load, and the cached-token fraction the
runtime actually achieved.
"""

from __future__ import annotations

import asyncio

from repro.bench import emit, format_table
from repro.cache.engine import PromptCache
from repro.pml.chat import PLAIN_TEMPLATE
from repro.serving import SchemaProfile, synthesize_trace
from repro.server import LiveServer, ServeOptions, build_workload, run_open_loop

RATES = [4.0, 12.0]
DURATION_S = 1.5
SEED = 5

PROFILES = [
    SchemaProfile(f"schema{i}", module_tokens=48, uncached_mean=10,
                  decode_mean=4, weight=1.0 / (i + 1))
    for i in range(3)
]


async def _drive(pc, workload, trace):
    options = ServeOptions(max_queue_depth=64, queue_delay_budget_s=None)
    async with LiveServer(pc, options) as server:
        return await run_open_loop(server, workload, trace)


def test_live_serving(benchmark, tok, tiny_model):
    pc = PromptCache(tiny_model, tok, template=PLAIN_TEMPLATE)
    workload = build_workload(PROFILES, tok, seed=SEED)
    workload.register(pc)

    rows = []
    for rate in RATES:
        trace = synthesize_trace(PROFILES, rate, DURATION_S, seed=SEED)
        report = asyncio.run(_drive(pc, workload, trace))
        rows.append([
            rate, len(trace), report.completed, report.rejected,
            round(1000 * report.ttft_percentile(50), 1),
            round(1000 * report.ttft_percentile(95), 1),
            round(report.cached_token_fraction, 2),
        ])

    emit(
        "live_serving",
        format_table(
            "Live runtime: tiny engine",
            ["rate_rps", "requests", "completed", "rejected",
             "live_p50_ms", "live_p95_ms", "cached_frac"],
            rows,
            note="open-loop Poisson trace",
        ),
    )
    for row in rows:
        assert row[2] > 0, "runtime must complete requests"
        assert row[-1] > 0, "live serving must hit the module cache"

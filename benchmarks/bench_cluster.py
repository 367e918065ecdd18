"""Cluster scaling: TTFT and re-encode avoidance at 1 / 2 / 4 workers.

Drives the same skewed schema mix (popularity ``1/(i+1)``, like real
schema pools) through :class:`repro.cluster.ClusterRouter` at increasing
worker counts. Affinity routing keeps each schema's modules hot on its
home worker; spilled or re-placed requests pull module KV over the
distribution plane instead of re-encoding, so the interesting numbers
are TTFT percentiles *and* ``cluster_reencode_avoided_tokens_total``.
Each row also reports the median wall time of a peer fetch, pooled from
every worker's ``cluster_peer_fetch_seconds`` samples (reported, not
gated).

A second scenario kills one of two workers mid-trace and audits the
zero-loss contract: every accepted request completes (on the survivor if
need be) — nothing is silently dropped.

CLI use (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick \
        --out BENCH_cluster.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

import numpy as np

from repro.bench import emit, format_table
from repro.cluster import ClusterRouter, ClusterWorker
from repro.cluster.loadgen import run_cluster_open_loop
from repro.llm import build_model, tiny_config
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ServeOptions, build_workload
from repro.serving.traces import SchemaProfile, synthesize_trace
from repro.tokenizer import default_tokenizer

WORKER_COUNTS = [1, 2, 4]
SEED = 13


def _profiles(n_schemas: int, module_tokens: int) -> list[SchemaProfile]:
    return [
        SchemaProfile(
            name=f"schema{i}",
            module_tokens=module_tokens,
            uncached_mean=8,
            decode_mean=3,
            weight=1.0 / (i + 1),
        )
        for i in range(n_schemas)
    ]


def _make_router(model, tok, n_workers: int, workload) -> ClusterRouter:
    options = ServeOptions(
        max_queue_depth=128,
        queue_delay_budget_s=None,
    )
    workers = [
        ClusterWorker(f"w{i}", model, tok, template=PLAIN_TEMPLATE, options=options)
        for i in range(n_workers)
    ]
    # An aggressive spill threshold: the skewed mix overloads the hot
    # schema's home worker, requests spill, and the spill targets must
    # pull module KV over the plane — the behaviour under measure.
    router = ClusterRouter(workers, spill_queue_depth=2)
    for source in workload.schema_sources.values():
        router.register_schema(source)
    return router


async def _drive_plain(router, workload, trace):
    async with router:
        return await run_cluster_open_loop(router, workload, trace)


async def _drive_with_kill(router, workload, trace, victim: str):
    async with router:
        run = asyncio.create_task(run_cluster_open_loop(router, workload, trace))
        # Pull the rug a third of the way through the trace.
        await asyncio.sleep(trace[len(trace) // 3].arrival_s)
        await router.kill_worker(victim)
        return await run


def _peer_fetch_p50_ms(router) -> float | None:
    """Median peer-fetch wall time over every worker's fetches; ``None``
    when no worker fetched from a peer."""
    samples = [
        seconds
        for worker in router.workers.values()
        for seconds in worker.metrics.histogram("cluster_peer_fetch_seconds").samples()
    ]
    return 1000 * float(np.median(samples)) if samples else None


def _scaling_row(router, report, n_workers: int) -> dict:
    snap = router.snapshot()
    gauges = snap["router"]["gauges"]
    hits = gauges.get('cluster_peer_fetch_total{outcome="hit"}', 0.0)
    misses = gauges.get('cluster_peer_fetch_total{outcome="miss"}', 0.0)
    return {
        "workers": n_workers,
        "completed": report.completed,
        "rejected": report.rejected,
        "failed": report.failed,
        "ttft_p50_ms": 1000 * report.ttft_percentile(50),
        "ttft_p95_ms": 1000 * report.ttft_percentile(95),
        "throughput_rps": report.throughput_rps,
        "peer_fetch_hits": hits,
        "peer_fetch_misses": misses,
        "peer_fetch_p50_ms": _peer_fetch_p50_ms(router),
        "reencode_avoided_tokens": gauges.get(
            "cluster_reencode_avoided_tokens_total", 0.0
        ),
        "spills": snap["router"]["counters"].get("cluster_spill_total", 0.0),
    }


def run_cluster_bench(model, tok, *, quick: bool = False) -> dict:
    """Scaling sweep + kill-one audit. Returns the dict that
    ``BENCH_cluster.json`` serializes."""
    n_schemas = 3 if quick else 6
    module_tokens = 24 if quick else 48
    rate = 120.0 if quick else 200.0
    duration_s = 0.5 if quick else 1.5

    profiles = _profiles(n_schemas, module_tokens)
    workload = build_workload(profiles, tok, seed=SEED)

    scaling = []
    for n_workers in WORKER_COUNTS:
        trace = synthesize_trace(profiles, rate, duration_s, seed=SEED)
        router = _make_router(model, tok, n_workers, workload)
        report = asyncio.run(_drive_plain(router, workload, trace))
        scaling.append(_scaling_row(router, report, n_workers))

    # Zero-loss audit: 2 workers, one killed a third of the way in.
    trace = synthesize_trace(profiles, rate, duration_s, seed=SEED)
    router = _make_router(model, tok, 2, workload)
    report = asyncio.run(_drive_with_kill(router, workload, trace, "w0"))
    snap = router.snapshot()
    kill_audit = {
        "trace_requests": len(trace),
        "completed": report.completed,
        "rejected": report.rejected,
        "expired": report.expired,
        "failed": report.failed,
        "failures": report.failures,
        "accounted": report.completed + report.rejected + report.expired
        + report.failed,
        "failovers": snap["router"]["counters"].get("cluster_failover_total", 0.0),
        "rebalances": snap["router"]["counters"].get("cluster_rebalance_total", 0.0),
    }

    return {
        "quick": quick,
        "schemas": n_schemas,
        "module_tokens": module_tokens,
        "rate_rps": rate,
        "duration_s": duration_s,
        "scaling": scaling,
        "kill_audit": kill_audit,
    }


def check_acceptance(results: dict) -> None:
    """The ISSUE's floors: serve at every scale, no silent request loss."""
    for row in results["scaling"]:
        assert row["completed"] > 0, f"{row['workers']} workers completed nothing"
        assert row["failed"] == 0, (
            f"{row['workers']} workers: {row['failed']} failed requests"
        )
    audit = results["kill_audit"]
    assert audit["failed"] == 0, (
        f"kill-one audit lost requests: {audit['failures']}"
    )
    assert audit["accounted"] == audit["trace_requests"], (
        f"unaccounted requests: {audit['accounted']} of "
        f"{audit['trace_requests']}"
    )
    assert audit["rebalances"] >= 1, "kill never triggered a rebalance"


def _report(results: dict) -> str:
    rows = [
        [
            row["workers"],
            row["completed"],
            row["rejected"],
            f"{row['ttft_p50_ms']:.1f}",
            f"{row['ttft_p95_ms']:.1f}",
            f"{row['throughput_rps']:.1f}",
            f"{row['peer_fetch_hits']:g}",
            "-" if row["peer_fetch_p50_ms"] is None else f"{row['peer_fetch_p50_ms']:.1f}",
            f"{row['reencode_avoided_tokens']:g}",
            f"{row['spills']:g}",
        ]
        for row in results["scaling"]
    ]
    audit = results["kill_audit"]
    return emit(
        "cluster",
        format_table(
            f"Cluster scaling: {results['schemas']} skewed schemas, "
            f"{results['rate_rps']:g} req/s for {results['duration_s']:g}s",
            ["workers", "done", "rej", "p50_ms", "p95_ms", "rps",
             "peer_hits", "fetch_p50_ms", "avoided_tok", "spills"],
            rows,
            note=(
                f"kill-one audit: {audit['completed']} completed of "
                f"{audit['trace_requests']} offered, {audit['failed']} lost, "
                f"{audit['failovers']:g} failovers after killing w0 mid-trace"
            ),
        ),
    )


def test_cluster_scaling(tiny_model, tok):
    results = run_cluster_bench(tiny_model, tok, quick=True)
    _report(results)
    check_acceptance(results)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer schemas, shorter trace (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_cluster.json"),
        help="where to write the JSON result",
    )
    args = parser.parse_args(argv)

    tok = default_tokenizer()
    model = build_model(tiny_config("llama", vocab_size=tok.vocab_size), seed=SEED)
    results = run_cluster_bench(model, tok, quick=args.quick)
    _report(results)
    check_acceptance(results)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

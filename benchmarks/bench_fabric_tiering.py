"""Fabric tiering: predictive prefetch vs demand page-in under capacity.

One capacity-constrained trace, two fabrics with **identical byte
budgets** (same fast-tier and DRAM-tier capacities, same snapshot). The
trace round-robins over more schemas than DRAM can hold, so every
request's modules have been evicted by the time the rotation comes back
around:

- **prefetch OFF** — each request pays the snapshot page-in (or worse)
  on the demand path; the page-in time lands inside TTFT.
- **prefetch ON** — the store's ``maintenance`` tick runs between
  requests (standing in for the live server's spare-capacity scheduler
  iterations); the prefetcher sees each key's mined inter-arrival
  cadence, pages the next keys in the rotation into DRAM ahead of their
  predicted arrival, and the demand fetch becomes a DRAM hit.

Time inside the store is driven by a logical clock (one tick per
request) so the demand cadence the prefetcher mines is deterministic
across hosts; TTFT is real wall clock from the engine. Reported: p95
TTFT off vs on, demand page-ins off vs on, and byte-identity of every
generated token across both fabrics and a plain unconstrained engine —
tiering must never change outputs.

CLI use (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_fabric_tiering.py --quick \
        --out BENCH_fabric.json \
        --check-against benchmarks/results/BENCH_fabric_baseline.json

The regression gate compares the *ratio* p95-on/p95-off, not absolute
seconds, so the committed baseline holds across machines. A broken
prefetch path (nothing predicted, nothing pulled) drives the ratio
toward 1.0, above the gate.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.bench import emit, format_table
from repro.cache.engine import PromptCache
from repro.cache.persist import save_store
from repro.cache.storage import ModuleCacheStore
from repro.llm import build_model, small_config
from repro.tokenizer import default_tokenizer

# The gate fails when the p95 on/off TTFT ratio worsens >25% vs baseline.
REGRESSION_TOLERANCE = 1.25
# Losing prefetch entirely (every request pays the page-in) is caught
# deterministically by the structural acceptance assertions (page-in
# counts, prefetch pulls, DRAM hits); the ratio floor keeps the
# wall-clock gate from flapping on TTFT jitter on shared CI hosts.
NOISE_FLOOR_RATIO = 1.0
# ISSUE floor: prefetch-on must beat prefetch-off on p95 TTFT. p95 over
# the quick trace is a near-max order statistic and one OS hiccup flips
# it, so the quick (CI smoke) floor gates the median instead; the full
# run gates p95 directly.
P95_SPEEDUP_FLOOR = 1.02
MEDIAN_SPEEDUP_FLOOR_QUICK = 1.05


def _words(rng, n: int) -> str:
    vocab = [
        "harbor", "granite", "lantern", "meadow", "orchid", "timber",
        "copper", "quarry", "willow", "ember", "summit", "delta",
    ]
    return " ".join(rng.choice(vocab) for _ in range(n))


def _schemas(n_schemas: int, n_modules: int, module_words: int) -> list[str]:
    rng = np.random.default_rng(7)
    sources = []
    for i in range(n_schemas):
        modules = "".join(
            f'<module name="m{j}">{_words(rng, module_words)}</module>'
            for j in range(n_modules)
        )
        sources.append(f'<schema name="s{i}">{modules}</schema>')
    return sources


def _prompt(i: int, n_modules: int, j: int) -> str:
    imports = "".join(f"<m{k}/>" for k in range(n_modules))
    return f'<prompt schema="s{i}">{imports} q{j}</prompt>'


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _run_config(
    model, tok, schemas, snapshot_dir, *, prefetch: bool,
    gpu_capacity: int, cpu_capacity: int, bytes_per_s: float,
    requests: int, n_schemas: int, n_modules: int, max_new_tokens: int,
):
    """One pass over the rotation. The logical clock advances one tick
    per request, so per-key inter-arrivals are exactly ``n_schemas``
    ticks and the lead window (2 ticks) covers the next two keys."""
    t = [0.0]
    store = ModuleCacheStore(
        gpu_capacity, cpu_capacity,
        snapshot_dir=snapshot_dir,
        prefetch_bytes_per_s=bytes_per_s,
        clock=lambda: t[0],
    )
    pc = PromptCache(model, tok, store=store)
    for source in schemas:
        pc.register_schema(source, eager=False)  # the snapshot holds the KV
    results, ttft_s = [], []
    for j in range(requests):
        t[0] = float(j)
        result = pc.serve(
            _prompt(j % n_schemas, n_modules, j), max_new_tokens=max_new_tokens
        )
        results.append(result)
        # Steady state only: the first rotation is cold for both configs.
        if j >= n_schemas:
            ttft_s.append(result.ttft_s)
        if prefetch:
            store.maintenance()
    return {
        "results": results,
        "ttft_s": ttft_s,
        "fabric": store.fabric_snapshot(),
    }


def run_fabric_bench(model, tok, *, quick: bool = False, workdir=None) -> dict:
    n_schemas = 5 if quick else 6
    n_modules = 2 if quick else 3
    module_words = 48 if quick else 96
    rotations = 5 if quick else 4
    max_new_tokens = 2 if quick else 4
    requests = n_schemas * (rotations + 1)  # one warmup rotation
    schemas = _schemas(n_schemas, n_modules, module_words)
    prompts = [_prompt(j % n_schemas, n_modules, j) for j in range(requests)]

    with tempfile.TemporaryDirectory(prefix="repro-fabric-bench-") as tmp:
        snapshot_dir = Path(workdir or tmp)
        # Seed pass: encode every module once on an unconstrained engine,
        # snapshot the store, and keep the outputs as the reference.
        pc_ref = PromptCache(model, tok)
        for source in schemas:
            pc_ref.register_schema(source, eager=True)
        save_store(pc_ref.store, snapshot_dir)
        schema_bytes = sum(
            entry.nbytes for entry in pc_ref.store.gpu.entries.values()
        ) / n_schemas
        reference = [
            pc_ref.serve(p, max_new_tokens=max_new_tokens) for p in prompts
        ]

        # Identical byte budgets: the fast tier holds ~1.5 schemas, DRAM
        # ~3.3 — wide enough for the current schema's demotions plus the
        # two schemas the prefetcher pulls ahead (otherwise each tick's
        # pull evicts the previous tick's, which is always LRU because
        # nothing touches a prefetched entry until its demand arrives),
        # yet the rotation is n_schemas (>= 5) wide, so by the time a
        # schema comes back around its modules are gone from both tiers.
        gpu_capacity = int(schema_bytes * 1.5)
        cpu_capacity = int(schema_bytes * 3.3)
        bytes_per_s = schema_bytes * 2.2  # ~2 schema pulls per tick
        common = dict(
            gpu_capacity=gpu_capacity, cpu_capacity=cpu_capacity,
            bytes_per_s=bytes_per_s, requests=requests,
            n_schemas=n_schemas, n_modules=n_modules,
            max_new_tokens=max_new_tokens,
        )
        off = _run_config(model, tok, schemas, snapshot_dir, prefetch=False, **common)
        on = _run_config(model, tok, schemas, snapshot_dir, prefetch=True, **common)

    identical = all(
        a.output_ids == b.output_ids == r.output_ids
        for a, b, r in zip(off["results"], on["results"], reference)
    )
    off_p95 = _percentile(off["ttft_s"], 95) * 1e3
    on_p95 = _percentile(on["ttft_s"], 95) * 1e3
    # Demand-path page-ins: every snapshot hit the OFF fabric records is
    # paid inside a request's TTFT; the ON fabric pays (most of) its
    # page-ins inside maintenance ticks instead, where only `swept` time
    # between requests is spent.
    off_demand_pageins = off["fabric"]["tiers"]["snapshot"]["hits"]
    return {
        "quick": quick,
        "n_schemas": n_schemas,
        "n_modules": n_modules,
        "requests": requests,
        "schema_bytes": schema_bytes,
        "gpu_capacity": gpu_capacity,
        "cpu_capacity": cpu_capacity,
        "outputs_identical": identical,
        "off": {
            "p95_ttft_ms": off_p95,
            "median_ttft_ms": _percentile(off["ttft_s"], 50) * 1e3,
            "demand_pageins": off_demand_pageins,
            "prefetch_planned": off["fabric"]["prefetch"]["planned"],
        },
        "on": {
            "p95_ttft_ms": on_p95,
            "median_ttft_ms": _percentile(on["ttft_s"], 50) * 1e3,
            "snapshot_hits": on["fabric"]["tiers"]["snapshot"]["hits"],
            "cpu_hits": on["fabric"]["tiers"]["cpu"]["hits"],
            "prefetch_planned": on["fabric"]["prefetch"]["planned"],
            "budget_denied": on["fabric"]["prefetch"]["budget_denied"],
        },
        "steady": {
            "speedup_p95": off_p95 / on_p95,
            "speedup_median": (
                _percentile(off["ttft_s"], 50) / _percentile(on["ttft_s"], 50)
            ),
            "ratio": on_p95 / off_p95,
        },
    }


def check_acceptance(results: dict) -> None:
    """The ISSUE's floors: byte-identity across tiers always; the
    prefetcher must engage and convert demand page-ins into DRAM hits;
    prefetch-on must beat prefetch-off on p95 TTFT."""
    assert results["outputs_identical"], (
        "fabric outputs diverged from the unconstrained engine — "
        "byte-identity broken"
    )
    # Capacity actually constrained: the OFF fabric pages in from the
    # snapshot on the demand path nearly every steady-state request.
    floor = results["requests"] - 2 * results["n_schemas"]
    assert results["off"]["demand_pageins"] >= floor, (
        f"OFF fabric paged in {results['off']['demand_pageins']} times; "
        f"expected >= {floor} — the trace is not capacity-constrained"
    )
    assert results["off"]["prefetch_planned"] == 0, (
        "prefetch-off fabric planned pulls — the toggle leaks"
    )
    assert results["on"]["prefetch_planned"] >= results["n_schemas"], (
        "prefetcher never engaged on the ON fabric"
    )
    assert results["on"]["cpu_hits"] > 0, (
        "no DRAM hits on the ON fabric — prefetched entries never served"
    )
    if results["quick"]:
        speedup = results["steady"]["speedup_median"]
        assert speedup >= MEDIAN_SPEEDUP_FLOOR_QUICK, (
            f"median TTFT speedup {speedup:.3f}x < "
            f"{MEDIAN_SPEEDUP_FLOOR_QUICK}x "
            f"(off {results['off']['median_ttft_ms']:.2f} ms, "
            f"on {results['on']['median_ttft_ms']:.2f} ms)"
        )
    else:
        speedup = results["steady"]["speedup_p95"]
        assert speedup >= P95_SPEEDUP_FLOOR, (
            f"p95 TTFT speedup {speedup:.3f}x < {P95_SPEEDUP_FLOOR}x "
            f"(off {results['off']['p95_ttft_ms']:.2f} ms, "
            f"on {results['on']['p95_ttft_ms']:.2f} ms)"
        )


def check_regression(results: dict, baseline_path: Path) -> None:
    """Fail when the p95 on/off TTFT ratio regressed >25% vs baseline."""
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("quick") != results["quick"]:
        print(
            "warning: baseline and run use different workload sizes "
            "(--quick mismatch); the ratio comparison is apples-to-oranges"
        )
    ratio = results["steady"]["ratio"]
    base = baseline["steady"]["ratio"]
    limit = max(base * REGRESSION_TOLERANCE, NOISE_FLOOR_RATIO)
    if ratio > limit:
        raise SystemExit(
            f"fabric-tiering regression: on/off p95 TTFT ratio {ratio:.4f} > "
            f"{limit:.4f} (baseline {base:.4f} +25%)"
        )
    print(
        f"regression gate ok: on/off p95 TTFT ratio {ratio:.4f} <= "
        f"{limit:.4f} (baseline {base:.4f} +25%)"
    )


def _report(results: dict) -> str:
    rows = [
        [
            "prefetch off",
            f"{results['off']['median_ttft_ms']:.2f}",
            f"{results['off']['p95_ttft_ms']:.2f}",
            str(results["off"]["demand_pageins"]),
            "0",
        ],
        [
            "prefetch on",
            f"{results['on']['median_ttft_ms']:.2f}",
            f"{results['on']['p95_ttft_ms']:.2f}",
            str(results["on"]["snapshot_hits"]),
            str(results["on"]["prefetch_planned"]),
        ],
    ]
    text = format_table(
        f"Fabric tiering: {results['requests']} requests round-robin "
        f"over {results['n_schemas']} schemas x "
        f"{results['n_modules']} modules, DRAM holds ~3 schemas",
        ["config", "median TTFT (ms)", "p95 TTFT (ms)", "page-ins",
         "prefetches"],
        rows,
        note=(
            f"p95 speedup {results['steady']['speedup_p95']:.2f}x; "
            f"outputs identical: "
            f"{'yes' if results['outputs_identical'] else 'NO'}"
        ),
    )
    if results["quick"]:
        # A smoke run's numbers are not the tracked table's: print only,
        # so CI and `pytest benchmarks/` leave the work tree clean.
        print("\n" + text)
        return text
    return emit("fabric_tiering", text)


def test_fabric_tiering(small_model, tok):
    results = run_fabric_bench(small_model, tok, quick=True)
    _report(results)
    check_acceptance(results)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller rotation, shorter modules (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_fabric.json"),
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None,
        help="baseline JSON; exit non-zero on >25%% p95-ratio regression",
    )
    args = parser.parse_args(argv)

    tok = default_tokenizer()
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    results = run_fabric_bench(model, tok, quick=args.quick)
    _report(results)
    check_acceptance(results)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check_against is not None:
        check_regression(results, args.check_against)


if __name__ == "__main__":
    main()

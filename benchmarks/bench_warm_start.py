"""Warm start: a persisted store re-attached as v2 memmaps vs v1 eager loads.

One schema's module set is encoded in-process, and the resulting store is
persisted twice: as format v1 (``savez_compressed`` archives, full eager
verify) and as format v2 (raw ``.npy`` arenas attached via ``np.memmap``
with sparse sampled verification). v2 restart cost is O(index), not
O(bytes); both loads are asserted byte-identical.

CLI use (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_warm_start.py --quick \
        --out BENCH_warm_start.json \
        --check-against benchmarks/results/BENCH_warm_start_baseline.json

The regression gate compares the *ratio* v2-attach/v1-load warm-start
time, not absolute seconds, so the committed baseline holds across
machines.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import emit, format_table
from repro.cache.encoder import encode_module
from repro.cache.layout import layout_schema
from repro.cache.persist import attach_snapshot, load_store, save_store
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.llm import build_model, small_config
from repro.pml.schema import Schema
from repro.tokenizer import default_tokenizer

# The gate fails when the v2/v1 warm-start ratio worsens >25% vs baseline.
REGRESSION_TOLERANCE = 1.25
# Millisecond-scale loads jitter on shared CI hosts; the floor keeps the
# gate from flapping on noise. A lost memmap fast path (v2 re-reading
# every byte eagerly) drives the ratio toward 1.0, far above the floor.
NOISE_FLOOR_RATIO = 0.25
# Acceptance floors: >=10x v2 warm start (full run), >=3x with --quick.
WARMSTART_SPEEDUP_FLOOR = 10.0
WARMSTART_SPEEDUP_FLOOR_QUICK = 3.0


def _schema(n_modules: int, body_repeats: int) -> str:
    body = "the quick brown fox jumps over the lazy dog . " * body_repeats
    modules = "".join(
        f'<module name="m{i}">{body}</module>' for i in range(n_modules)
    )
    return f'<schema name="encbench">{modules}</schema>'


def _encoded_store(model, layout) -> ModuleCacheStore:
    store = ModuleCacheStore()
    for name in layout.order:
        kv = encode_module(model, layout.module(name))
        store.put(CacheKey("encbench", name), kv, tier="cpu")
    return store


def _measure_warmstart(store, workdir: Path, *, repeats: int) -> dict:
    """v1 eager compressed round-trip vs v2 memmap attach, best-of-N."""
    v1_dir, v2_dir = workdir / "snap_v1", workdir / "snap_v2"
    save_store(store, v1_dir, format="v1")
    save_store(store, v2_dir)

    def best_of(load) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            load()
            best = min(best, time.perf_counter() - start)
        return best

    v1_s = best_of(lambda: load_store(v1_dir))
    v2_s = best_of(lambda: attach_snapshot(v2_dir, background_verify=False))

    attached = attach_snapshot(v2_dir, background_verify=False)
    reference = load_store(v1_dir)
    identical = all(
        np.array_equal(
            np.asarray(attached.store.peek(key).kv.key_arena),
            reference.peek(key).kv.key_arena,
        )
        and np.array_equal(
            np.asarray(attached.store.peek(key).kv.value_arena),
            reference.peek(key).kv.value_arena,
        )
        for key in reference.cpu.keys()
    )
    return {
        "snapshot_bytes": store.total_bytes(),
        "v1_load_s": v1_s,
        "v2_attach_s": v2_s,
        "mapped_bytes": attached.mapped_bytes,
        "loads_identical": identical,
    }


def run_warm_start_bench(model, tok, workdir: Path, *, quick: bool = False) -> dict:
    """Encode one schema, then compare its v1 and v2 warm starts. Returns
    the result dict that ``BENCH_warm_start.json`` serializes."""
    repeats = 3 if quick else 5
    n_modules = 4 if quick else 8
    body_repeats = 8 if quick else 30
    layout = layout_schema(Schema.parse(_schema(n_modules, body_repeats)), tok)
    warmstart = _measure_warmstart(
        _encoded_store(model, layout), workdir, repeats=repeats
    )
    return {
        "quick": quick,
        "n_modules": n_modules,
        "module_tokens": len(layout.module("m0").token_ids),
        "warmstart": {
            **warmstart,
            "speedup": warmstart["v1_load_s"] / warmstart["v2_attach_s"],
            "ratio": warmstart["v2_attach_s"] / warmstart["v1_load_s"],
        },
    }


def check_acceptance(results: dict) -> None:
    """Byte-identical loads always, and the warm-start speedup floor."""
    warmstart = results["warmstart"]
    assert warmstart["loads_identical"], (
        "v2 memmap attach diverged from the v1 eager load"
    )
    floor = (
        WARMSTART_SPEEDUP_FLOOR_QUICK if results["quick"] else WARMSTART_SPEEDUP_FLOOR
    )
    assert warmstart["speedup"] >= floor, (
        f"warm-start speedup {warmstart['speedup']:.1f}x < {floor}x "
        f"(v1 {warmstart['v1_load_s'] * 1e3:.1f} ms, "
        f"v2 {warmstart['v2_attach_s'] * 1e3:.1f} ms)"
    )


def check_regression(results: dict, baseline_path: Path) -> None:
    """Fail when the v2/v1 warm-start ratio regressed >25% vs baseline."""
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("quick") != results["quick"]:
        print(
            "warning: baseline and run use different workload sizes "
            "(--quick mismatch); the ratio comparison is apples-to-oranges"
        )
    ratio = results["warmstart"]["ratio"]
    base = baseline["warmstart"]["ratio"]
    limit = max(base * REGRESSION_TOLERANCE, NOISE_FLOOR_RATIO)
    if ratio > limit:
        raise SystemExit(
            f"warm-start regression: v2/v1 ratio {ratio:.4f} > "
            f"{limit:.4f} (baseline {base:.4f} +25%)"
        )
    print(
        f"regression gate ok: warm-start ratio {ratio:.4f} <= {limit:.4f} "
        f"(baseline {base:.4f} +25%)"
    )


def _report(results: dict) -> str:
    warmstart = results["warmstart"]
    rows = [[
        f"{warmstart['v1_load_s'] * 1e3:.1f}",
        f"{warmstart['v2_attach_s'] * 1e3:.1f}",
        f"{warmstart['speedup']:.2f}x",
        "yes" if warmstart["loads_identical"] else "NO",
    ]]
    return emit(
        "warm_start",
        format_table(
            f"Warm start: {results['n_modules']} modules x "
            f"{results['module_tokens']} tokens",
            ["v1 load (ms)", "v2 attach (ms)", "speedup", "identical"],
            rows,
            note=(
                f"snapshot {warmstart['snapshot_bytes'] // 1024} KiB, "
                f"{warmstart['mapped_bytes'] // 1024} KiB mapped"
            ),
        ),
    )


def test_warm_start(small_model, tok, tmp_path):
    results = run_warm_start_bench(small_model, tok, tmp_path, quick=True)
    _report(results)
    check_acceptance(results)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller schema, fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_warm_start.json"),
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None,
        help="baseline JSON; exit non-zero on >25%% warm-start regression",
    )
    args = parser.parse_args(argv)

    tok = default_tokenizer()
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    with tempfile.TemporaryDirectory(prefix="bench_warm_start_") as workdir:
        results = run_warm_start_bench(model, tok, Path(workdir), quick=args.quick)
    _report(results)
    check_acceptance(results)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check_against is not None:
        check_regression(results, args.check_against)


if __name__ == "__main__":
    main()

"""Ablation: two-phase shared-prefix decode attention vs share factor.

One schema, one long shared module, S in-flight sequences all decoding
over forks of the same pre-spliced base — the ChunkAttention shape. For
each share factor the continuous scheduler runs the same trace twice:

- **off** — the per-sequence single-pass kernel: every sequence streams
  the full shared-prefix + private-suffix context itself each step.
- **on** — the batched arena step: one chunk phase over the shared
  prefix per group per layer, one stacked private phase over the tail
  arena, one online-softmax merge, fused projections.

Reported per share factor: effective attention FLOPs per decode step
(the bandwidth-equivalent accounting of :mod:`repro.llm.flops`, summed
from the scheduler's own per-iteration share accounting and
cross-checked against its ``flops_saved``), the single-pass/two-phase
FLOP ratio, decode tokens/s for both modes, and identity of every
generated token. The FLOP axis is deterministic — it depends only on
the trace geometry — so the regression gate pins it tightly; wall-clock
tokens/s is reported (2.05x at share 16 on the committed run) but gated
by the end-to-end benchmark (``benchmarks/e2e``), not here — except for
the share-factor-1 guard, which runs the shipped ``auto`` policy
(singletons stay on the per-sequence kernel) and must not regress
against ``off``.

CLI use (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_abl_chunk_attention.py --quick \
        --out BENCH_chunk_attention.json \
        --check-against benchmarks/results/BENCH_chunk_attention_baseline.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.bench import emit, format_table
from repro.cache.engine import PromptCache
from repro.llm import build_model, small_config
from repro.llm.flops import (
    decode_attention_stream_flops,
    two_phase_merge_flops,
)
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler
from repro.server.request import LiveRequest
from repro.tokenizer import default_tokenizer

# ISSUE floor: >=2x effective attention-FLOP reduction at 16 sequences
# per shared module. The quick smoke's top share factor is smaller, so
# its floor is too.
FLOP_RATIO_FLOOR = 2.0
FLOP_RATIO_FLOOR_QUICK = 1.5
# "No tokens/s regression at share factor 1": the auto policy leaves
# singletons on the legacy path, so this only flags real overhead; the
# slack absorbs wall-clock noise on busy CI hosts.
SHARE1_TOKENS_S_TOLERANCE = 0.75
# Baseline gate: the top-share FLOP ratio is trace-deterministic, so a
# >10% drop means the sharing itself got worse, not the machine.
REGRESSION_TOLERANCE = 1.10

SCHEMA = (
    '<schema name="bench">'
    '<module name="doc">plan a trip lasting three days focus on food '
    "the quick brown fox jumps over the lazy dog paris museums cafes "
    "architecture louvre seine miami beaches nightlife surf spots art "
    "deco answer the question using the documents above the capital of "
    "atlantis is coral city</module>"
    "</schema>"
)

SUFFIXES = [
    "answer the question",
    "plan a trip",
    "focus on food",
    "the capital of atlantis",
    "miami beaches nightlife",
    "paris museums cafes",
    "surf spots art deco",
    "lasting three days",
]


def build_trace(share: int) -> list[str]:
    """S prompts over one shared module with varied private suffixes."""
    return [
        f'<prompt schema="bench"><doc/> {SUFFIXES[i % len(SUFFIXES)]} '
        f"{SUFFIXES[(i // len(SUFFIXES)) % len(SUFFIXES)]}</prompt>"
        for i in range(share)
    ]


def drive(pc: PromptCache, mode: str, prompts: list[str], budget: int) -> dict:
    """Serve the prompts to completion through one scheduler; returns
    outputs, decode timing, and the aggregated share accounting."""
    sched = ContinuousScheduler(
        pc, max_inflight=max(len(prompts), 1), shared_attention=mode
    )
    pending = [
        LiveRequest(
            request_id=f"r{i}",
            prompt=prompt,
            schema="bench",
            max_new_tokens=budget,
            submitted_at=0.0,
        )
        for i, prompt in enumerate(prompts)
    ]
    outputs: dict[str, list[int]] = {}
    decode_s = 0.0
    tokens = 0
    single_flops = 0
    two_phase_flops = 0
    saved_check = 0
    scheduler_saved = 0
    config = pc.model.config
    outcome = sched.iterate(pending)
    while True:
        assert not outcome.requeued
        if outcome.decode_batch and not outcome.prefill_tokens:
            # Pure-decode iterations only: prefill cost is mode-
            # independent and would dilute the tokens/s comparison.
            decode_s += outcome.elapsed_s
            tokens += len(outcome.emitted)
        # Effective attention FLOPs, both ways, from the scheduler's own
        # per-iteration accounting. Every iteration here has at most one
        # group (one shared base), so sizes/tokens pair exactly.
        if outcome.shared_group_sizes:
            size = outcome.shared_group_sizes[0]
            shared_len = outcome.shared_kv_tokens
            private = outcome.private_kv_tokens
            single_iter = decode_attention_stream_flops(
                config, shared_len, queries=size
            ) + decode_attention_stream_flops(config, private)
            two_iter = (
                decode_attention_stream_flops(config, shared_len)
                + decode_attention_stream_flops(config, private)
                + size * two_phase_merge_flops(config)
            )
            single_flops += single_iter
            two_phase_flops += two_iter
            # The scheduler floors each group's savings at zero (a
            # singleton "saves" negative merge overhead); mirror that.
            saved_check += max(single_iter - two_iter, 0)
            scheduler_saved += outcome.flops_saved
        for request, result, error, _at in outcome.finished:
            assert error is None, error
            outputs[request.request_id] = result.output_ids
        if sched.active == 0:
            break
        outcome = sched.iterate([])
    if mode != "off":
        assert saved_check == scheduler_saved, (
            "bench accounting diverged from scheduler flops_saved "
            f"({saved_check} vs {scheduler_saved})"
        )
    return {
        "outputs": outputs,
        "decode_s": decode_s,
        "tokens": tokens,
        "tokens_s": tokens / decode_s if decode_s > 0 else 0.0,
        # Per-layer stream accounting scaled to the whole stack.
        "single_flops": single_flops * config.n_layers,
        "two_phase_flops": two_phase_flops * config.n_layers,
    }


def run_chunk_bench(model, tok, *, quick: bool = False) -> dict:
    share_factors = [1, 4, 8] if quick else [1, 4, 16, 40]
    budget = 6 if quick else 16
    # Best-of-repeats: noise only ever adds wall time, and the share-1
    # guard compares two runs of the *same* code path, so one noisy
    # sample must not fail it.
    repeats = 2 if quick else 3

    points = []
    for share in share_factors:
        prompts = build_trace(share)
        best: dict[str, dict] = {}
        for _rep in range(repeats):
            for mode in ("off", "on", "auto"):
                pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
                pc.register_schema(SCHEMA)
                pc.serve(prompts[0], max_new_tokens=1)  # warm base + plan
                run = drive(pc, mode, prompts, budget)
                prev = best.get(mode)
                if prev is not None and run["outputs"] != prev["outputs"]:
                    raise AssertionError(
                        f"{mode} outputs changed between repeats — "
                        "decoding is not deterministic"
                    )
                if prev is None or run["tokens_s"] > prev["tokens_s"]:
                    best[mode] = run
        off, on, auto = best["off"], best["on"], best["auto"]
        identical = (
            on.pop("outputs") == off["outputs"]
            and auto.pop("outputs") == off.pop("outputs")
        )
        points.append(
            {
                "share": share,
                "outputs_identical": identical,
                "tokens_s_off": off["tokens_s"],
                "tokens_s_on": on["tokens_s"],
                "tokens_s_auto": auto["tokens_s"],
                # The FLOP axis comes from the "on" run, where every
                # iteration's group accounting is live.
                "single_flops": on["single_flops"],
                "two_phase_flops": on["two_phase_flops"],
                "flop_ratio": (
                    on["single_flops"] / on["two_phase_flops"]
                    if on["two_phase_flops"]
                    else 1.0
                ),
            }
        )
    top = points[-1]
    share1 = points[0]
    return {
        "quick": quick,
        "share_factors": share_factors,
        "budget": budget,
        "repeats": repeats,
        "points": points,
        "top_share": top["share"],
        "top_flop_ratio": top["flop_ratio"],
        "share1_tokens_s_ratio": (
            share1["tokens_s_auto"] / share1["tokens_s_off"]
            if share1["tokens_s_off"] > 0
            else 1.0
        ),
    }


def check_acceptance(results: dict) -> None:
    """The ISSUE's floors: byte-identity at every share factor, >=2x
    effective attention-FLOP reduction at high share, no tokens/s
    regression at share factor 1 under the shipped policy."""
    for point in results["points"]:
        assert point["outputs_identical"], (
            f"share {point['share']}: two-phase outputs diverged from the "
            "single-pass kernel — byte-identity broken"
        )
    floor = FLOP_RATIO_FLOOR_QUICK if results["quick"] else FLOP_RATIO_FLOOR
    gate_share = 16 if not results["quick"] else results["top_share"]
    gated = next(p for p in results["points"] if p["share"] >= gate_share)
    assert gated["flop_ratio"] >= floor, (
        f"share {gated['share']}: effective attention-FLOP reduction only "
        f"{gated['flop_ratio']:.2f}x, floor {floor}x"
    )
    ratio = results["share1_tokens_s_ratio"]
    assert ratio >= SHARE1_TOKENS_S_TOLERANCE, (
        f"share-factor-1 decode rate regressed to {ratio:.2f}x of the "
        f"legacy path (tolerance {SHARE1_TOKENS_S_TOLERANCE}x)"
    )


def check_regression(results: dict, baseline_path: Path) -> None:
    """Fail when the top-share FLOP ratio fell >10% below baseline."""
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("quick") != results["quick"]:
        print(
            "warning: baseline and run use different workload sizes "
            "(--quick mismatch); the ratio comparison is apples-to-oranges"
        )
    ratio = results["top_flop_ratio"]
    limit = baseline["top_flop_ratio"] / REGRESSION_TOLERANCE
    if ratio < limit:
        raise SystemExit(
            f"chunk-attention regression: top-share FLOP ratio "
            f"{ratio:.3f}x < {limit:.3f}x "
            f"(baseline {baseline['top_flop_ratio']:.3f}x -10%)"
        )
    print(
        f"regression gate ok: top-share FLOP ratio {ratio:.3f}x >= "
        f"{limit:.3f}x (baseline {baseline['top_flop_ratio']:.3f}x -10%)"
    )


def _report(results: dict) -> str:
    rows = [
        [
            str(p["share"]),
            f"{p['single_flops'] / 1e6:.2f}",
            f"{p['two_phase_flops'] / 1e6:.2f}",
            f"{p['flop_ratio']:.2f}x",
            f"{p['tokens_s_off']:.1f}",
            f"{p['tokens_s_on']:.1f}",
            "yes" if p["outputs_identical"] else "NO",
        ]
        for p in results["points"]
    ]
    return emit(
        "abl_chunk_attention",
        format_table(
            f"Two-phase shared-prefix decode vs share factor "
            f"(budget {results['budget']} tokens)",
            ["share", "single MFLOP", "two-phase MFLOP", "reduction",
             "tok/s off", "tok/s on", "identical"],
            rows,
            note=(
                f"effective attention FLOPs (bandwidth-equivalent), whole "
                f"decode; share-1 auto/off tokens/s ratio "
                f"{results['share1_tokens_s_ratio']:.2f}x"
            ),
        ),
    )


def test_chunk_attention_ablation(small_model, tok):
    results = run_chunk_bench(small_model, tok, quick=True)
    _report(results)
    check_acceptance(results)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer share factors, shorter decode budgets (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_chunk_attention.json"),
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None,
        help="baseline JSON; exit non-zero on >10%% FLOP-ratio regression",
    )
    args = parser.parse_args(argv)

    tok = default_tokenizer()
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    started = time.perf_counter()
    results = run_chunk_bench(model, tok, quick=args.quick)
    results["bench_wall_s"] = time.perf_counter() - started
    _report(results)
    check_acceptance(results)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check_against is not None:
        check_regression(results, args.check_against)


if __name__ == "__main__":
    main()

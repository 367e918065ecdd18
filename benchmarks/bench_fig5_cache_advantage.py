"""Figure 5 — cache advantage: quadratic baseline vs linear Prompt Cache.

Paper result: KV-cache TTFT grows quadratically with sequence length while
Prompt Cache's cost (memcpy + constant suffix) grows linearly, so the gap
widens quadratically; the effect is stronger on CPUs than GPUs.

Reproduced twice:
- *modeled* — the device model swept 1K→10K tokens on the i9, RTX 4090 and
  A40, fully-cached prompts, modules in CPU memory (the paper's setup);
- *measured* — the NumPy engine swept over real sequence lengths on this
  host, same protocol (all tokens cached in one module).
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.bench import emit, format_series, time_call
from repro.cache.engine import PromptCache
from repro.hw.device import A40, INTEL_I9_13900K, RTX_4090
from repro.hw.latency import baseline_ttft, cached_ttft
from repro.llm.config import paper_config
from repro.pml.chat import PLAIN_TEMPLATE

LLAMA7B = paper_config("llama2-7b")
LENGTHS = [1000, 2000, 3000, 5000, 7000, 10000]


def modeled_curves():
    series: dict[str, list[float]] = {}
    for device in (INTEL_I9_13900K, RTX_4090, A40):
        series[f"{device.name}-baseline_s"] = [
            round(baseline_ttft(LLAMA7B, n, device).total_s, 3) for n in LENGTHS
        ]
        series[f"{device.name}-cached_s"] = [
            round(cached_ttft(LLAMA7B, n, 1, device, "cpu").total_s, 3)
            for n in LENGTHS
        ]
    return series


def test_fig5_modeled(benchmark):
    series = modeled_curves()
    emit(
        "fig5_cache_advantage",
        format_series(
            "Figure 5: TTFT vs sequence length, fully cached prompts (modeled)",
            "tokens", LENGTHS, series,
            note="baseline quadratic, Prompt Cache linear; gap widens with length",
        ),
    )
    for device in ("i9-13900k", "rtx-4090", "a40"):
        base = series[f"{device}-baseline_s"]
        cached = series[f"{device}-cached_s"]
        # Across a 10x length span: cached grows sub-linearly (<10x, it is
        # linear with a constant term), baseline super-linearly (>10x, the
        # quadratic attention term dominates).
        span = LENGTHS[-1] / LENGTHS[0]
        assert cached[-1] / cached[0] < span < base[-1] / base[0], device
        # The advantage (gap) must widen monotonically.
        gaps = [b - c for b, c in zip(base, cached)]
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])), device
    # CPU benefits more than GPU at every length (§5.4).
    cpu_ratio = series["i9-13900k-baseline_s"][-1] / series["i9-13900k-cached_s"][-1]
    gpu_ratio = series["rtx-4090-baseline_s"][-1] / series["rtx-4090-cached_s"][-1]
    assert cpu_ratio > gpu_ratio
    benchmark(modeled_curves)


def median_ms(fn, *args, repeats: int = 5, **kwargs) -> float:
    """Median of ``repeats`` single wall-clock runs, in ms."""
    return round(1000 * statistics.median(
        time_call(fn, *args, **kwargs) for _ in range(repeats)
    ), 2)


def test_fig5_measured(benchmark, tiny_model, tok):
    """Same sweep on the real engine (tiny shape, this host's CPU)."""
    lengths = [128, 256, 512, 1024, 2048]
    filler_words = "the quick brown fox jumps over the lazy dog "
    baseline_ms, cached_ms = [], []
    pc = PromptCache(tiny_model, tok, template=PLAIN_TEMPLATE)
    for i, n in enumerate(lengths):
        text = filler_words * (n // 8)
        ids = tok.encode(text)[:n]
        text = tok.decode(ids)
        name = f"sweep{i}"
        pc.register_schema(
            f'<schema name="{name}"><module name="m">{text}</module></schema>'
        )
        prompt = f'<prompt schema="{name}"><m/></prompt>'
        cached_ms.append(median_ms(pc.serve, prompt, max_new_tokens=1))
        baseline_ms.append(median_ms(pc.baseline, prompt, max_new_tokens=1))
    emit(
        "fig5_cache_advantage_measured",
        format_series(
            "Figure 5 (measured): NumPy engine on this host, llama-tiny",
            "tokens", lengths,
            {"baseline_ms": baseline_ms, "cached_ms": cached_ms},
            note="fully cached prompt, median of 5; cached cost is splice + 1-token suffix",
        ),
    )
    assert baseline_ms[-1] / baseline_ms[0] > 2 * (cached_ms[-1] / max(cached_ms[0], 0.01))
    assert cached_ms[-1] < baseline_ms[-1]
    prompt = '<prompt schema="sweep4"><m/></prompt>'
    benchmark(pc.serve, prompt, max_new_tokens=1)

"""Autoregressive generation loops: the three regimes of paper Figure 1.

- :func:`generate_no_cache` — full recompute of every attention state at
  every step (Fig 1a). Exists as the pedagogical/correctness baseline.
- :func:`generate` — standard KV-cache generation (Fig 1b): one prefill
  pass over the prompt, then one-token steps. This is the paper's baseline
  system.
- Prompt Cache generation (Fig 1c) lives in :mod:`repro.cache.engine`; it
  produces a pre-populated :class:`~repro.llm.kv.KVCache` and then reuses
  :func:`decode_loop` below, since decoding is identical after the first
  token (paper §3.4).

All loops record wall-clock TTFT (time to first token) and per-step TTST
(time to subsequent tokens), the two quantities every figure reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.llm.kv import KVCache
from repro.llm.models import TransformerModel
from repro.llm.sampling import GreedySampler


@dataclass
class GenerationResult:
    """Tokens plus the latency breakdown the benchmarks consume."""

    prompt_ids: list[int]
    output_ids: list[int]
    ttft_s: float
    step_times_s: list[float] = field(default_factory=list)

    @property
    def ttst_s(self) -> float:
        """Mean time-to-subsequent-token (0.0 when only one token was made)."""
        return float(np.mean(self.step_times_s)) if self.step_times_s else 0.0


def prefill(
    model: TransformerModel,
    token_ids: np.ndarray,
    cache: KVCache,
    position_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Run the prompt through the model, filling ``cache``; returns the
    last token's logits (the input to the first sampling decision)."""
    token_ids = np.asarray(token_ids)
    if position_ids is None:
        start = len(cache)
        position_ids = np.arange(start, start + token_ids.shape[0])
    logits = model.forward(
        token_ids, np.asarray(position_ids), [(cache, len(token_ids))]
    )
    return logits[0]


def decode_loop(
    model: TransformerModel,
    cache: KVCache,
    first_logits: np.ndarray,
    *,
    max_new_tokens: int,
    next_position: int,
    sampler=None,
    stop_ids: set[int] | None = None,
) -> tuple[list[int], list[float]]:
    """Sample up to ``max_new_tokens`` one token at a time.

    ``next_position`` is the position ID of the first generated token; under
    Prompt Cache this continues from the end of the schema layout rather
    than ``len(cache)``.
    """
    sampler = sampler or GreedySampler()
    stop_ids = stop_ids or set()
    tokens: list[int] = []
    step_times: list[float] = []
    logits = first_logits
    position = next_position
    for _ in range(max_new_tokens):
        # The step timer starts before sampling so each recorded step is
        # one full sample-then-forward cycle — with non-greedy samplers
        # the sampling work is real and must land in TTST, not vanish
        # between the timers. (The final token's sampling has no forward
        # after it and stays uncharged, same as before.)
        step_start = time.perf_counter()
        token = sampler(logits)
        tokens.append(token)
        if token in stop_ids or len(tokens) == max_new_tokens:
            break
        logits = model.forward(
            np.asarray([token]), np.asarray([position]), cache
        )[-1]
        step_times.append(time.perf_counter() - step_start)
        position += 1
    return tokens, step_times


def generate(
    model: TransformerModel,
    prompt_ids: list[int],
    *,
    max_new_tokens: int = 32,
    sampler=None,
    stop_ids: set[int] | None = None,
) -> GenerationResult:
    """KV-cache generation (the paper's baseline): prefill once, then decode."""
    cache = model.new_cache(capacity=len(prompt_ids) + max_new_tokens)
    start = time.perf_counter()
    logits = prefill(model, np.asarray(prompt_ids), cache)
    ttft = time.perf_counter() - start
    tokens, step_times = decode_loop(
        model,
        cache,
        logits,
        max_new_tokens=max_new_tokens,
        next_position=len(prompt_ids),
        sampler=sampler,
        stop_ids=stop_ids,
    )
    return GenerationResult(list(prompt_ids), tokens, ttft, step_times)


def generate_no_cache(
    model: TransformerModel,
    prompt_ids: list[int],
    *,
    max_new_tokens: int = 32,
    sampler=None,
    stop_ids: set[int] | None = None,
) -> GenerationResult:
    """Naive autoregression (Fig 1a): every step recomputes the full prefix.

    Quadratically slower than :func:`generate` but must produce identical
    greedy outputs — a correctness check on the KV cache itself.
    """
    sampler = sampler or GreedySampler()
    stop_ids = stop_ids or set()
    sequence = list(prompt_ids)
    tokens: list[int] = []
    step_times: list[float] = []
    ttft = 0.0
    for step in range(max_new_tokens):
        cache = model.new_cache(capacity=len(sequence))
        start = time.perf_counter()
        logits = model.forward(
            np.asarray(sequence), np.arange(len(sequence)), cache
        )[-1]
        elapsed = time.perf_counter() - start
        if step == 0:
            ttft = elapsed
        else:
            step_times.append(elapsed)
        token = sampler(logits)
        tokens.append(token)
        sequence.append(token)
        if token in stop_ids:
            break
    return GenerationResult(list(prompt_ids), tokens, ttft, step_times)

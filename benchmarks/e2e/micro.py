"""Micro rates: direct calls into single layers, a fraction of a second each.

The units are those SNIPPETS.md's prompt-cache-engine publishes for its
cache plane (150K trie lookups/s is its claim for "framework overhead is
negligible"), plus the model's prefill and decode step times at the
shapes the workloads use.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import sut
import workloads

SHARED_TOKENS = 512
SLICE_S = 0.25  # time box of each micro rate
SMOKE_SLICE_S = 0.02


def _rate(fn, seconds: float) -> float:
    """Calls per second of ``fn(i)`` over about ``seconds``."""
    calls = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for _ in range(32):
            fn(calls)
            calls += 1
    return calls / (time.perf_counter() - start)


def _median_ms(fn, seconds: float, at_least: int = 5) -> float:
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < at_least or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def micro_metrics(seed: int, smoke: bool = False) -> dict[str, float]:
    box = SMOKE_SLICE_S if smoke else SLICE_S
    tok = sut.tokenizer()
    text = workloads.Text(lambda s: len(tok.encode(s)))
    rng = np.random.default_rng([seed, 900])
    subjects = sut.micro_subjects(text.words(rng, SHARED_TOKENS))
    trie, pc, scheduler = subjects["trie"], subjects["pc"], subjects["scheduler"]
    m: dict[str, float] = {}

    # trie: 256-token sequences sharing a 192-token prefix in groups of 8
    prefixes = [list(rng.integers(4, 800, size=192)) for _ in range(64)]
    sequences = [
        prefixes[i // 8 % 64] + list(rng.integers(4, 800, size=64)) for i in range(2048)
    ]
    m["micro.trie_insert_per_s"] = _rate(lambda i: trie.insert(sequences[i % 2048]), box)
    m["micro.trie_lookup_per_s"] = _rate(lambda i: trie.longest_prefix(sequences[i % 2048]), box)

    # plan cache and store, on a hot key
    prompt = '<prompt schema="micro"><m/> what is due ?</prompt>'
    pc.prompt_token_count(prompt)
    m["micro.plan_lookup_per_s"] = _rate(lambda i: pc.prompt_token_count(prompt), box)
    key = subjects["key"]
    m["micro.store_fetch_per_s"] = _rate(lambda i: pc.store.fetch(key), box)

    # fork of the spliced base: open a stream on a compiled plan, drop it
    def fork():
        pc.open_stream(prompt, max_new_tokens=1).abort()

    fork()
    m["micro.fork_us"] = _median_ms(fork, box) * 1e3

    # model: a cold 256-token prefill, a batch-1 decode step over 512 rows
    ids = np.asarray(rng.integers(4, 800, size=256))
    positions = np.arange(256)
    m["micro.prefill_ms_256tok"] = (
        _median_ms(
            lambda: pc.model.forward(ids, positions, pc.model.new_cache(capacity=256)), box)
    )

    def decode_steps(width: int) -> float:
        """Median iteration time with ``width`` streams decoding over the
        shared 512-token module (sample, one batched forward)."""
        requests = [subjects["request"](i, prompt, 64) for i in range(width)]
        scheduler.iterate(requests)  # admit, prefill, first tokens
        samples = []
        for _ in range(24):
            start = time.perf_counter()
            scheduler.iterate([])
            samples.append((time.perf_counter() - start) * 1e3)
        scheduler.abort_all()
        return statistics.median(samples)

    m["micro.decode_step_ms_b1"] = decode_steps(1)
    m["micro.decode_step_ms_b16_shared512"] = decode_steps(16)
    return m

"""System soak: randomized multi-schema serving under memory pressure.

One PromptCache with a tightly capped GPU tier, an int8 codec, and several
schemas; a random request stream forces continuous eviction, demotion,
re-fetch and re-encode. Invariants checked continuously:

- the GPU tier never exceeds capacity;
- every response decodes the requested number of tokens;
- determinism: the same prompt yields the same output at any point in the
  stream (eviction/demotion/compression must not corrupt states beyond
  the codec's declared fidelity — int8 is not bit-exact, so determinism is
  checked against an int8 reference, not the identity codec).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.engine import PromptCache
from repro.cache.storage import ModuleCacheStore
from repro.pml import PLAIN_TEMPLATE

N_SCHEMAS = 4
N_REQUESTS = 40

TEXTS = [
    "the quick brown fox jumps over the lazy dog near the harbor",
    "paris has museum basalt and cafes along the seine riverbank",
    "atlantis has capital coral according to the oldest records",
    "the misty valley borders the ancient gate near zephyria",
]


def build_pc(llama, tok, capacity_modules: int = 3):
    # Size the tier to ~3 module entries (int8-compressed).
    probe = PromptCache(llama, tok, template=PLAIN_TEMPLATE, kv_codec="int8")
    probe.register_schema(
        f'<schema name="probe"><module name="m">{TEXTS[0]}</module></schema>'
    )
    per_module = probe.store.gpu.used_bytes
    store = ModuleCacheStore(
        gpu_capacity_bytes=capacity_modules * per_module + 512
    )
    pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE, kv_codec="int8")
    for i in range(N_SCHEMAS):
        body = "".join(
            f'<module name="doc{j}">{TEXTS[(i + j) % len(TEXTS)]} variant {i}{j}</module>'
            for j in range(2)
        )
        pc.register_schema(f'<schema name="s{i}">{body}</schema>', eager=False)
    return pc


def test_soak_random_stream(llama, tok):
    pc = build_pc(llama, tok)
    rng = np.random.default_rng(7)
    reference: dict[str, list[int]] = {}
    capacity = pc.store.gpu.capacity_bytes
    for step in range(N_REQUESTS):
        schema = f"s{int(rng.integers(0, N_SCHEMAS))}"
        doc = f"doc{int(rng.integers(0, 2))}"
        prompt = f'<prompt schema="{schema}"><{doc}/> question {schema}-{doc}</prompt>'
        result = pc.serve(prompt, max_new_tokens=3)
        assert len(result.output_ids) == 3
        assert pc.store.gpu.used_bytes <= capacity, step
        # Determinism across evictions/demotions/re-encodes.
        if prompt in reference:
            assert result.output_ids == reference[prompt], (step, prompt)
        else:
            reference[prompt] = result.output_ids
    stats = pc.store.gpu.stats
    # The stream must actually have exercised the memory pressure paths.
    assert stats.evictions > 0
    assert stats.misses > 0 and stats.hits > 0
    assert len(pc.store.cpu.keys()) > 0  # demotions landed in host memory


def test_soak_with_updates_and_invalidations(llama, tok):
    pc = build_pc(llama, tok, capacity_modules=4)
    rng = np.random.default_rng(11)
    for step in range(12):
        schema = f"s{int(rng.integers(0, N_SCHEMAS))}"
        pc.serve(f'<prompt schema="{schema}"><doc0/> q{step}</prompt>', max_new_tokens=2)
        if step % 4 == 1:
            pc.invalidate(schema, "doc0")
        if step % 5 == 2:
            pc.update_module_text(schema, "doc1", f"fresh text number {step} here")
    # Still serving correctly after the churn.
    result = pc.serve('<prompt schema="s0"><doc0/><doc1/> final</prompt>', max_new_tokens=3)
    assert len(result.output_ids) == 3

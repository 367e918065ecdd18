"""System soak: randomized multi-schema serving under memory pressure.

One PromptCache with a tightly capped GPU tier and several schemas; a
random request stream forces continuous eviction, demotion, re-fetch and
re-encode. Invariants checked continuously:

- the GPU tier never exceeds capacity;
- every response decodes the requested number of tokens;
- exactness: every output equals that of an unbounded reference engine
  that never evicts (eviction, demotion and re-encode must hand the
  splice the same states).
"""

from __future__ import annotations

import numpy as np

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


def build_pc(llama, tok, capacity_modules: int | None = 3):
    """The schemas on a GPU tier sized to ~``capacity_modules`` module
    entries; ``None`` is the unbounded reference."""
    store = None
    if capacity_modules is not None:
        probe = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        probe.register_schema(
            f'<schema name="probe"><module name="m">{TEXTS[0]}</module></schema>'
        )
        per_module = probe.store.gpu.used_bytes
        store = ModuleCacheStore(
            gpu_capacity_bytes=capacity_modules * per_module + 512
        )
    pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
    for i in range(N_SCHEMAS):
        body = "".join(
            f'<module name="doc{j}">{TEXTS[(i + j) % len(TEXTS)]} variant {i}{j}</module>'
            for j in range(2)
        )
        pc.register_schema(f'<schema name="s{i}">{body}</schema>', eager=False)
    return pc


def test_soak_random_stream(llama, tok):
    pc = build_pc(llama, tok)
    unbounded = build_pc(llama, tok, capacity_modules=None)
    reference: dict[str, list[int]] = {}
    rng = np.random.default_rng(7)
    capacity = pc.store.gpu.capacity_bytes
    for step in range(N_REQUESTS):
        schema = f"s{int(rng.integers(0, N_SCHEMAS))}"
        doc = f"doc{int(rng.integers(0, 2))}"
        prompt = f'<prompt schema="{schema}"><{doc}/> question {schema}-{doc}</prompt>'
        result = pc.serve(prompt, max_new_tokens=3)
        assert len(result.output_ids) == 3
        assert pc.store.gpu.used_bytes <= capacity, step
        if prompt not in reference:
            reference[prompt] = unbounded.serve(prompt, max_new_tokens=3).output_ids
        assert result.output_ids == reference[prompt], (step, prompt)
    assert unbounded.store.gpu.stats.evictions == 0
    stats = pc.store.gpu.stats
    # The stream must actually have exercised the memory pressure paths.
    assert stats.evictions > 0
    assert stats.misses > 0 and stats.hits > 0
    assert len(pc.store.cpu.keys()) > 0  # demotions landed in host memory


def test_soak_with_updates_and_invalidations(llama, tok):
    pc = build_pc(llama, tok, capacity_modules=4)
    unbounded = build_pc(llama, tok, capacity_modules=None)
    rng = np.random.default_rng(11)
    for step in range(12):
        schema = f"s{int(rng.integers(0, N_SCHEMAS))}"
        prompt = f'<prompt schema="{schema}"><doc0/> q{step}</prompt>'
        result = pc.serve(prompt, max_new_tokens=2)
        assert result.output_ids == unbounded.serve(prompt, max_new_tokens=2).output_ids
        for engine in (pc, unbounded):
            if step % 4 == 1:
                engine.invalidate(schema, "doc0")
            if step % 5 == 2:
                engine.update_module_text(schema, "doc1", f"fresh text number {step} here")
    # Still serving the updated text exactly after the churn.
    prompt = '<prompt schema="s0"><doc0/><doc1/> final</prompt>'
    result = pc.serve(prompt, max_new_tokens=3)
    assert result.output_ids == unbounded.serve(prompt, max_new_tokens=3).output_ids

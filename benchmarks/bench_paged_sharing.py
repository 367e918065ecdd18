"""§3.4 with real tensors — module sharing across a batch on the serving path.

Complements `bench_sec34_batch_memory.py` (analytic accounting at paper
shapes) by measuring the mechanism itself: N requests over the same
cached document module, each with its own suffix and decode, served by
``PromptCache.serve_batch``. Every request forks one spliced base that
reads the module's K/V by reference, and keeps a private tail. Measured:
physical vs duplicated bytes, and output equality with serving each
request alone.
"""

from __future__ import annotations

from repro.bench import emit, format_table
from repro.cache.engine import PromptCache
from repro.pml.chat import PLAIN_TEMPLATE

BATCH = 12
DOC = "the quick brown fox jumps over the lazy dog . " * 12
SCHEMA = f'<schema name="pg"><module name="doc">{DOC}</module></schema>'


def _engine(model, tok) -> PromptCache:
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(SCHEMA)
    return pc


def test_paged_sharing(benchmark, small_model, tok):
    prompts = [
        f'<prompt schema="pg"><doc/> request {i} asks : what happened ?</prompt>'
        for i in range(BATCH)
    ]
    pc = _engine(small_model, tok)
    batch = pc.serve_batch(prompts, max_new_tokens=4)

    # Reference: each request alone, on an engine that never shared.
    solo = _engine(small_model, tok)
    matches = all(
        result.output_ids == solo.serve(prompt, max_new_tokens=4).output_ids
        for prompt, result in zip(prompts, batch.results)
    )

    emit(
        "paged_sharing",
        format_table(
            f"Sec 3.4 mechanism: {BATCH} requests sharing one module by reference",
            ["quantity", "value"],
            [
                ["module tokens", batch.results[0].cached_tokens],
                ["shared groups", batch.shared_groups],
                ["physical bytes (base once + tails)", batch.physical_bytes],
                ["duplicated bytes (private caches)", batch.duplicated_bytes],
                ["physical / duplicated", f"{batch.physical_bytes / batch.duplicated_bytes:.2f}"],
                ["memory saved", f"{100 * batch.memory_savings:.0f}%"],
                ["outputs match solo serve", matches],
            ],
            note="PromptCache.serve_batch: forks of one spliced base, the paper's pointer-sharing",
        ),
    )
    assert batch.physical_bytes < 0.45 * batch.duplicated_bytes
    assert matches

    def one_request():
        pc.serve('<prompt schema="pg"><doc/> quick question ?</prompt>', max_new_tokens=1)

    benchmark(one_request)

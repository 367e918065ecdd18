"""End-to-end reuse discovery through the real engine.

The load-bearing guarantee (ISSUE 6 acceptance): with discovery ON, raw
serving output is **byte-identical** to discovery OFF — and to the plain
KV-cache ``generate`` baseline — while the second pass over repeated
traffic serves a growing token prefix from spliced discovered modules.

Also pinned here: the plan-cache staleness fix (a module evicted from
*every* tier invalidates compiled plans that reference it) and the
self-healing path when a discovered module's KV is dropped from the
store while the trie keeps its boundary.
"""

from __future__ import annotations

import pytest

from repro.cache.engine import DISCOVERED_SCHEMA, PromptCache
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.llm.generation import generate
from repro.pml.chat import PLAIN_TEMPLATE
from repro.reuse import DiscoveryConfig

SHARED = "the quick brown fox jumps over the lazy dog " * 3
SUFFIXES = [
    "plan a trip lasting three days focus on food",
    "miami beaches nightlife surf spots",
    "paris museums cafes architecture",
    "answer the question using the documents above",
]
PROMPTS = [SHARED + s for s in SUFFIXES]


def discovery_config(**overrides) -> DiscoveryConfig:
    return DiscoveryConfig(**{"min_hits": 2, "min_tokens": 8, **overrides})


@pytest.fixture()
def pc_on(llama, tok):
    pc = PromptCache(llama, tok)
    pc.attach_discovery(discovery_config())
    return pc


class TestByteIdentity:
    def test_on_off_and_generate_all_agree(self, llama, tok, pc_on):
        pc_off = PromptCache(llama, tok)
        # Two passes: pass 1 mines, pass 2 serves from discovered modules.
        for _ in range(2):
            for text in PROMPTS:
                on = pc_on.serve_text(text, max_new_tokens=8)
                off = pc_off.serve_text(text, max_new_tokens=8)
                base = generate(llama, tok.encode(text), max_new_tokens=8)
                assert on.output_ids == off.output_ids == base.output_ids
                assert on.text == off.text
        # Discovery must actually have engaged, or the test proves nothing.
        assert pc_on.discovery.stats.promotions >= 1
        assert pc_on.discovered_modules()

    def test_second_pass_serves_shared_prefix_from_cache(self, pc_on, tok):
        results = [pc_on.serve_text(t, max_new_tokens=4) for t in PROMPTS]
        # Observation precedes serving, so the min_hits-th request both
        # promotes the shared prefix and is the first to splice it; only
        # the initial request is guaranteed fully uncached.
        assert results[0].cached_tokens == 0
        assert results[1].cached_tokens > 0
        shared_len = len(tok.encode(SHARED))
        for text in PROMPTS:
            again = pc_on.serve_text(text, max_new_tokens=4)
            assert again.cached_tokens > 0
            assert again.cached_tokens <= len(tok.encode(text))
        # The promoted segment covers (at least most of) the shared run.
        assert pc_on.discovered_modules()[-1].end >= min(
            shared_len, pc_on.discovery.config.min_tokens
        )

    def test_fully_covered_prompt_stays_identical(self, llama, tok, pc_on):
        text = SHARED.strip()
        base = generate(llama, tok.encode(text), max_new_tokens=6)
        for _ in range(3):
            result = pc_on.serve_text(text, max_new_tokens=6)
            assert result.output_ids == base.output_ids
        # Third serve hits the promoted module covering the whole prompt.
        assert pc_on.serve_text(text, max_new_tokens=6).cached_tokens > 0

    def test_batch_matches_solo_and_shares_memory(self, llama, tok):
        """A prefix shared only within a batch promotes once the batch is
        observed, and the very requests that revealed it reuse it — the
        first included — with outputs unchanged."""
        pc = PromptCache(llama, tok)
        # min_tokens above the per-prompt suffix length: the shared run
        # promotes, the unique tails never do, so every prompt matches
        # the same one-module chain.
        pc.attach_discovery(discovery_config(min_tokens=20))
        for text in PROMPTS:
            pc.discovery.observe(tok.encode(text), pc)
        assert pc.discovery.stats.promotions == 1
        batch = [pc.serve_text(t, max_new_tokens=4, observe=False) for t in PROMPTS]
        for text, result in zip(PROMPTS, batch):
            base = generate(llama, tok.encode(text), max_new_tokens=4)
            assert result.output_ids == base.output_ids
        cached = {result.cached_tokens for result in batch}
        assert len(cached) == 1 and cached.pop() >= 20
        assert len(pc._bases) == 1  # all four forked one spliced base
        assert pc.discovery.stats.observed_sequences == len(PROMPTS)

    def test_observe_false_never_promotes(self, llama, tok):
        pc = PromptCache(llama, tok)
        pc.attach_discovery(discovery_config())
        for _ in range(3):
            for text in PROMPTS:
                pc.serve_text(text, max_new_tokens=2, observe=False)
        assert pc.discovery.stats.promotions == 0
        assert pc.discovery.stats.observed_sequences == 0


class TestRegistryLifecycle:
    def test_register_validates_span(self, pc_on, tok):
        ids = tok.encode(SHARED)
        with pytest.raises(ValueError):
            pc_on.register_discovered_module("bad", ids, len(ids))
        with pytest.raises(ValueError):
            pc_on.register_discovered_module("bad", ids, -1)

    def test_unregister_removes_module_and_kv(self, pc_on, tok):
        for _ in range(2):
            for text in PROMPTS:
                pc_on.serve_text(text, max_new_tokens=2)
        (module, *_) = pc_on.discovered_modules()
        pc_on.unregister_discovered_module(module.name)
        assert module.name not in {m.name for m in pc_on.discovered_modules()}
        matching = [
            key for key in list(pc_on.store.gpu.keys()) + list(pc_on.store.cpu.keys())
            if key.schema == DISCOVERED_SCHEMA and key.module == module.name
        ]
        assert not matching

    def test_dropped_kv_self_heals_byte_identically(self, llama, tok, pc_on):
        for _ in range(2):
            for text in PROMPTS:
                pc_on.serve_text(text, max_new_tokens=4)
        baseline = [
            generate(llama, tok.encode(t), max_new_tokens=4).output_ids
            for t in PROMPTS
        ]
        # Drop every discovered KV behind the registry's back (capacity
        # pressure in real life); the trie still matches, so the engine
        # must re-encode on the next hit — not crash, not drift.
        pc_on.store.remove_matching(DISCOVERED_SCHEMA)
        for text, expected in zip(PROMPTS, baseline):
            result = pc_on.serve_text(text, max_new_tokens=4)
            assert result.output_ids == expected


class TestPlanCacheStaleness:
    def test_capacity_eviction_invalidates_compiled_plans(self, llama, tok):
        schema = (
            '<schema name="city"><module name="doc">'
            "the capital of atlantis is coral city"
            "</module></schema>"
        )
        probe = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        probe.register_schema(schema)
        (doc,) = probe.store.gpu.keys()
        kv = probe.store.peek(doc).kv
        # Room for the one module, no DRAM tier and no snapshot_dir: a
        # capacity victim leaves its last tier and is gone.
        store = ModuleCacheStore(gpu_capacity_bytes=kv.nbytes(), cpu_capacity_bytes=0)
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(schema)
        prompt = '<prompt schema="city"><doc/> the capital of atlantis is</prompt>'
        first = pc.serve(prompt, max_new_tokens=4)
        before = pc.plan_cache_stats().invalidations
        # Another module takes the tier's room: the doc module is resident
        # in no tier, so the compiled plan is stale.
        store.put(CacheKey("other", "filler"), kv)
        assert doc not in store and store.gpu.stats.evictions == 1
        assert pc.plan_cache_stats().invalidations > before
        again = pc.serve(prompt, max_new_tokens=4)
        assert again.output_ids == first.output_ids

    def test_demotion_does_not_invalidate(self, llama, tok):
        store = ModuleCacheStore(gpu_capacity_bytes=1)  # everything demotes
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(
            '<schema name="city"><module name="doc">'
            "the capital of atlantis is coral city"
            "</module></schema>"
        )
        prompt = '<prompt schema="city"><doc/> the capital of atlantis is</prompt>'
        pc.serve(prompt, max_new_tokens=2)
        invalidations = pc.plan_cache_stats().invalidations
        # Modules were pushed GPU→CPU on insert, yet stayed servable:
        # demotion must not have torn down compiled plans.
        assert store.cpu.entries and not store.gpu.entries
        assert invalidations == 0
        pc.serve(prompt, max_new_tokens=2)
        assert pc.plan_cache_stats().hits >= 1

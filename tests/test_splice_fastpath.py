"""The splice fast path: compiled plans and spliced bases.

Correctness contracts:

- The splice is a concatenation and nothing more: the prefix a stream's
  paged fork holds, and the flat copy ``_arena_splice`` builds for
  sessions, equal ``np.concatenate`` of the slot-dropped module KV read
  from the store — the legacy layout, rebuilt here as the oracle — and
  decoding over either yields the tokens decoding over the oracle does.
- Compiled plans are memoized but never served stale: ``register_schema``,
  ``invalidate`` and ``update_module_text`` evict affected entries.
- A spliced-base hit records the same store statistics, tier occupancy
  and CPU-hit promotion as the slow path, and skips the splice memcpy.
- A base is read in place by every fork and never copied; decode
  appends grow the fork's private tail in place, and every fork goes
  back to its base.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.cache import engine as engine_module
from repro.cache.encoder import drop_param_slots
from repro.cache.engine import PromptCache, _arena_splice
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.llm.generation import decode_loop
from repro.llm.kv import KVCache, LayerKV, allocation_count, reset_allocation_count
from repro.pml import PLAIN_TEMPLATE
from tests.test_engine import demote_to_dram

DOC = (
    '<schema name="doc"><module name="d">the quick brown fox jumps over the '
    'lazy dog again and again</module></schema>'
)

TWO_MODULES = (
    '<schema name="duo2">'
    '<module name="a">the quick brown fox jumps over the lazy dog</module>'
    '<module name="b">plan a trip lasting three days focus on food</module>'
    '</schema>'
)

PROMPT = '<prompt schema="doc"><d/> plan a trip</prompt>'


def make_pc(model, tok):
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(DOC)
    return pc


class TestPlanCache:
    def test_repeat_serves_hit(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=2)
        assert pc.plan_stats.misses == 1
        pc.serve(PROMPT, max_new_tokens=2)
        assert pc.plan_stats.hits == 1
        assert pc.plan_stats.misses == 1

    def test_whitespace_canonicalization(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=1)
        pc.serve(f"  {PROMPT}\n", max_new_tokens=1)
        assert pc.plan_stats.hits == 1

    def test_baseline_and_token_count_share_plans(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.prompt_token_count(PROMPT)
        assert pc.plan_stats.misses == 1
        pc.baseline(PROMPT, max_new_tokens=1)
        pc.serve(PROMPT, max_new_tokens=1)
        assert pc.plan_stats.misses == 1
        assert pc.plan_stats.hits == 2

    def test_lru_bound(self, llama, tok, monkeypatch):
        monkeypatch.setattr(engine_module, "PLAN_CACHE_SIZE", 2)
        pc = make_pc(llama, tok)
        for text in ("one", "two", "three"):
            pc.prompt_token_count(f'<prompt schema="doc"><d/> {text}</prompt>')
        assert len(pc._plan_cache) == 2

    def test_update_module_text_evicts_plans(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=4)
        pc.update_module_text("doc", "d", "the capital of atlantis is coral city")
        assert pc.plan_stats.invalidations >= 1
        updated = pc.serve(PROMPT, max_new_tokens=4)
        assert pc.plan_stats.misses >= 2  # re-planned, not served stale
        # The updated module genuinely flows through: same content as a
        # freshly built engine over the new text.
        fresh = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        fresh.register_schema(
            '<schema name="doc"><module name="d">the capital of atlantis is '
            "coral city</module></schema>"
        )
        assert updated.output_ids == fresh.serve(PROMPT, max_new_tokens=4).output_ids

    def test_invalidate_evicts_plans(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=1)
        assert pc.invalidate("doc", "d") >= 0
        assert pc.plan_stats.invalidations == 1
        pc.serve(PROMPT, max_new_tokens=1)
        assert pc.plan_stats.misses == 2

    def test_invalidate_other_module_keeps_plans(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(TWO_MODULES)
        pc.prompt_token_count('<prompt schema="duo2"><a/> q</prompt>')
        pc.invalidate("duo2", "b")  # plan does not reference module b
        assert pc.plan_stats.invalidations == 0
        pc.prompt_token_count('<prompt schema="duo2"><a/> q</prompt>')
        assert pc.plan_stats.hits == 1

    def test_reregister_evicts_plans(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=1)
        pc.register_schema(DOC)
        assert pc.plan_stats.invalidations == 1

    def test_listener_sees_events(self, llama, tok):
        pc = make_pc(llama, tok)
        events: list[str] = []
        pc.add_plan_cache_listener(events.append)
        pc.serve(PROMPT, max_new_tokens=1)
        pc.serve(PROMPT, max_new_tokens=1)
        pc.invalidate("doc")
        assert events == ["miss", "hit", "invalidation"]


def index_rebuilt_from(entries, schema_of) -> dict:
    """What a ``_ModuleIndex`` must hold for the map ``entries``."""
    index: dict = {}
    for key, entry in entries.items():
        for module in (None, *entry.module_names):
            index.setdefault((schema_of(key, entry), module), set()).add(key)
    return index


def assert_indexes_match_maps(pc: PromptCache) -> None:
    assert pc._plan_index._keys == index_rebuilt_from(
        pc._plan_cache, lambda _key, entry: entry.schema_name
    )
    assert pc._base_index._keys == index_rebuilt_from(
        pc._bases, lambda key, _entry: key[0]
    )


class TestEvictionInvalidatesByIndex:
    """Plans and bases are found through a ``(schema, module)`` index,
    not a walk: a plan or base never survives its module's last eviction,
    and never dies for another schema's."""

    SCHEMAS = {
        name: f'<schema name="{name}"><module name="a">{text}</module>'
        f'<module name="b">plan a trip lasting three days</module></schema>'
        for name, text in (
            ("one", "the quick brown fox jumps over the lazy dog"),
            ("two", "miami beaches nightlife surf spots art deco museums"),
        )
    }

    @staticmethod
    def prompts(schema: str) -> list[str]:
        return [
            f'<prompt schema="{schema}"><a/> {text}</prompt>' for text in ("q", "why")
        ] + [f'<prompt schema="{schema}"><b/> q</prompt>']

    def engine(self, model, tok) -> PromptCache:
        store = ModuleCacheStore(cpu_capacity_bytes=0)
        pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
        for source in self.SCHEMAS.values():
            pc.register_schema(source)
        return pc

    def evict(self, pc: PromptCache, schema: str, module: str) -> None:
        """A capacity eviction of the last resident copy: squeeze the
        tier until the LRU victim is the one asked for."""
        key = CacheKey(schema, module, "solo")
        tier = pc.store.gpu
        tier.get(key)  # most recent...
        for other in [k for k in tier.keys() if k != key]:
            tier.get(other)  # ...now least
        tier.capacity_bytes = tier.used_bytes  # full as it stands
        pc.store.put(CacheKey("pressure", "p"), _Bytes(tier.peek(key).nbytes))
        tier.capacity_bytes = None
        tier.remove(CacheKey("pressure", "p"))
        assert key not in pc.store and tier.stats.evictions == 1

    def test_a_module_eviction_takes_exactly_its_plans_and_bases(self, llama, tok):
        pc = self.engine(llama, tok)
        for schema in self.SCHEMAS:
            for prompt in self.prompts(schema):
                pc.serve(prompt, max_new_tokens=1)
        assert len(pc._plan_cache) == 6 and len(pc._bases) == 4
        assert_indexes_match_maps(pc)
        self.evict(pc, "one", "a")
        survivors = set(pc._plan_cache)
        assert survivors == {*self.prompts("two"), self.prompts("one")[2]}
        assert {key[0] for key in pc._bases} == {"one", "two"}
        assert all("a" not in b.module_names for k, b in pc._bases.items() if k[0] == "one")
        assert len(pc._bases) == 3 and pc.plan_stats.invalidations == 2
        assert_indexes_match_maps(pc)
        # Schema "two" kept serving from what it had: hits, not rebuilds.
        before = (pc.plan_stats.hits, pc.plan_stats.base_hits)
        for prompt in self.prompts("two"):
            pc.serve(prompt, max_new_tokens=1)
        assert (pc.plan_stats.hits, pc.plan_stats.base_hits) == (before[0] + 3, before[1] + 3)

    def test_an_eviction_that_invalidates_nothing_touches_nothing(self, llama, tok):
        pc = self.engine(llama, tok)
        for prompt in self.prompts("two"):
            pc.serve(prompt, max_new_tokens=1)
        self.evict(pc, "one", "a")  # nobody planned with it
        assert len(pc._plan_cache) == 3 and pc.plan_stats.invalidations == 0
        assert_indexes_match_maps(pc)

    def test_lru_trims_and_whole_schema_invalidation_keep_the_index(
        self, llama, tok, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "PLAN_CACHE_SIZE", 2)
        monkeypatch.setattr(engine_module, "BASE_CACHE_SIZE", 1)
        pc = self.engine(llama, tok)
        for schema in self.SCHEMAS:
            for prompt in self.prompts(schema):
                pc.serve(prompt, max_new_tokens=1)
                assert_indexes_match_maps(pc)
        assert len(pc._plan_cache) == 2 and len(pc._bases) == 1
        pc.invalidate("two")
        assert not pc._plan_cache and not pc._bases
        assert pc._plan_index._keys == {} and pc._base_index._keys == {}
        pc.serve(self.prompts("one")[0], max_new_tokens=1)
        pc.update_module_text("one", "b", "plan a trip lasting four days")
        assert pc._plan_index._keys == {} and pc._base_index._keys == {}


class _Bytes:
    """A stand-in payload of a given size (the store only asks that)."""

    def __init__(self, nbytes: int) -> None:
        self._nbytes = nbytes

    def nbytes(self) -> int:
        return self._nbytes


# Parameters, a union of unequal members, a scaffold set, and (last) a
# prompt with no text of its own: fully cached, its tail token recomputed.
ORACLE_SCHEMA = (
    '<schema name="oracle"><scaffold modules="intro,facts"/>'
    '<module name="intro">the quick brown fox</module>'
    '<module name="facts">jumps over the lazy dog</module>'
    '<module name="plan">plan a trip lasting <param name="days" len="8"/> '
    "focus on food</module>"
    '<union><module name="miami">miami beaches nightlife surf spots art deco'
    '</module><module name="paris">paris museums</module></union>'
    "</schema>"
)
ORACLE_PROMPTS = [
    '<prompt schema="oracle"><plan days="three days"/><paris/> answer the '
    "question</prompt>",
    '<prompt schema="oracle"><miami/><plan/> what now ?</prompt>',
    '<prompt schema="oracle"><intro/><facts/> what happened ?</prompt>',
    '<prompt schema="oracle"><intro/><miami/></prompt>',
]


def stored_module_kvs(pc, prompt):
    """The slot-dropped KV of each module ``prompt`` selects, read from
    the store in document order (a fully-cached prompt gives up the tail
    token it recomputes)."""
    compiled = pc._compiled(prompt)
    registered, plan = compiled.registered, compiled.plan
    kvs = []
    for mod, name, variant in pc._variants_for(registered, plan, True):
        key = CacheKey(registered.layout.schema_name, name, variant)
        kv = drop_param_slots(pc.store.peek(key).kv, mod, list(mod.params.values()))
        if plan.recompute_tail is not None and plan.recompute_tail[0] == name:
            kv = kv.slice(0, len(kv) - 1)
        kvs.append(kv)
    return kvs


def legacy_cache(config, kvs) -> KVCache:
    """The splice oracle: per layer, ``np.concatenate`` of the modules."""
    positions = np.concatenate([kv.positions for kv in kvs])
    return KVCache([
        LayerKV.from_arrays(
            np.concatenate([kv.keys[i] for kv in kvs], axis=1),
            np.concatenate([kv.values[i] for kv in kvs], axis=1),
            positions,
        )
        for i in range(config.n_layers)
    ])


def assert_prefix_equal(cache, n, oracle):
    for layer, want in zip(cache.layers, oracle.layers):
        np.testing.assert_array_equal(layer.keys[:, :n], want.keys)
        np.testing.assert_array_equal(layer.values[:, :n], want.values)
        np.testing.assert_array_equal(layer.positions[:n], want.positions)


def decode_over(pc, prompt, cache, max_new_tokens=6):
    compiled = pc._compiled(prompt)
    logits = pc.model.forward(*compiled.merged_uncached, cache)[-1]
    return decode_loop(
        pc.model, cache, logits, max_new_tokens=max_new_tokens,
        next_position=compiled.plan.next_position,
    )[0]


class TestSpliceModeEquivalence:
    @pytest.mark.parametrize("layout", ["paged", "arena"])
    def test_outputs_byte_identical_to_legacy(self, any_model, tok, layout):
        pc = PromptCache(any_model, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(ORACLE_SCHEMA)
        assert pc._compiled(ORACLE_PROMPTS[-1]).plan.recompute_tail is not None
        for prompt in ORACLE_PROMPTS:
            kvs = stored_module_kvs(pc, prompt)
            oracle = legacy_cache(any_model.config, kvs)
            if layout == "paged":
                for _ in range(2):  # a base build, then a base hit
                    stream = pc.open_stream(prompt, max_new_tokens=6)
                    try:
                        assert stream.shared_len == len(oracle) == stream.cached_tokens
                        assert_prefix_equal(stream.cache, stream.shared_len, oracle)
                    finally:
                        stream.abort()
                tokens = pc.serve(prompt, max_new_tokens=6).output_ids
            else:
                cache = _arena_splice(any_model.config, kvs, extra_capacity=16)
                assert_prefix_equal(cache, len(oracle), oracle)
                tokens = decode_over(pc, prompt, cache)
            assert tokens == decode_over(pc, prompt, oracle)

    def test_multi_module_equivalence(self, models, tok):
        """Where the paper's equivalence is exact — a full scaffold set
        at the prefix — the spliced prefix is also what one direct
        forward over the modules' tokens computes."""
        prompt = ORACLE_PROMPTS[2]
        for model in models.values():
            pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
            pc.register_schema(ORACLE_SCHEMA)
            layout = pc.schemas["oracle"].layout
            mods = [layout.module("intro"), layout.module("facts")]
            direct = model.new_cache(capacity=16)
            model.forward(
                np.concatenate([m.token_ids for m in mods]),
                np.concatenate([m.positions for m in mods]), direct,
            )
            stream = pc.open_stream(prompt, max_new_tokens=1)
            try:
                assert_prefix_equal(stream.cache, stream.shared_len, direct)
            finally:
                stream.abort()


class TestSplicedBase:
    def test_base_hit_skips_splice_allocations(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=2)  # builds the base
        assert pc.plan_stats.base_misses == 1
        reset_allocation_count()
        pc.serve(PROMPT, max_new_tokens=2)
        assert pc.plan_stats.base_hits == 1
        # The fork reads the base in place; its private tails are one
        # allocation per side for every layer, sized for the decode. No
        # per-module, per-layer splice copies remain on the hot path.
        n_layers = llama.config.n_layers
        assert allocation_count() <= n_layers

    def test_base_hit_still_counts_store_hits(self, llama, tok):
        pc = make_pc(llama, tok)
        hits_before = pc.store.gpu.stats.hits
        pc.serve(PROMPT, max_new_tokens=1)
        pc.serve(PROMPT, max_new_tokens=1)
        # Each serve re-validates the module against the store: two lookups.
        assert pc.store.gpu.stats.hits == hits_before + 2

    def test_base_rebuilt_after_store_eviction(self, llama, tok):
        store = ModuleCacheStore(cpu_capacity_bytes=0)
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(DOC)
        first = pc.serve(PROMPT, max_new_tokens=3)
        # Simulate capacity eviction behind the engine's back.
        store.gpu.remove(CacheKey("doc", "d", "solo"))
        second = pc.serve(PROMPT, max_new_tokens=3)
        assert pc.plan_stats.base_misses == 2  # stale base was rebuilt
        assert second.output_ids == first.output_ids

    def test_cpu_tier_tokens_and_promotion(self, llama, tok):
        t = [0.0]
        store = ModuleCacheStore(clock=lambda: t[0])
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(DOC)  # the encode's lookup: one arrival
        demote_to_dram(store)
        t[0] = 1.0  # the next, 1 s on: inside placement's 2 s horizon
        first = pc.serve(PROMPT, max_new_tokens=1)
        assert first.tier_tokens["cpu"] > 0
        # That DRAM hit promoted the module; the next serve is a GPU hit.
        second = pc.serve(PROMPT, max_new_tokens=1)
        assert second.tier_tokens["gpu"] > 0
        assert second.tier_tokens["cpu"] == 0

    def test_a_base_freed_by_its_own_lookups_is_rebuilt(self, llama, tok, tmp_path):
        """The DRAM hit on ``a`` promotes it; the fast tier's victim ``x``
        demotes into a full DRAM tier, which evicts ``b`` (spilled to the
        snapshot) and with it the base — then ``b`` pages straight back
        in. The stream must not fork the base those lookups dropped: it
        holds the whole cached span, and its first logits are a fresh
        engine's."""
        pair = (
            '<schema name="pair"><module name="a">the quick brown fox jumps over '
            'the lazy dog</module><module name="b">paris museums cafes '
            "architecture louvre seine</module></schema>"
        )
        other = '<schema name="other"><module name="x">miami beaches nightlife surf</module></schema>'
        prompt = '<prompt schema="pair"><a/><b/> plan a trip</prompt>'
        fresh = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        fresh.register_schema(pair)
        fresh.register_schema(other)
        size = {
            key.module: fresh.store.peek(key).nbytes for key in fresh.store.gpu.keys()
        }
        fast = max(size.values())
        dram = max(size["a"] + size["b"], size["a"] + size["x"])
        assert fast < min(size["a"] + size["b"], size["a"] + size["x"])
        assert dram < sum(size.values())
        t = [0.0]
        store = ModuleCacheStore(fast, dram, snapshot_dir=tmp_path, clock=lambda: t[0])
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(pair)  # a, then b evicting a into DRAM
        pc.register_schema(other)  # x evicting b into DRAM
        assert set(store.gpu.keys()) == {CacheKey("other", "x")}
        pc.serve(prompt, max_new_tokens=1)  # the base; no promotion yet
        assert pc.plan_stats.base_misses == 1

        t[0] = 1.0  # a second arrival 1 s on: ``a`` is worth promoting
        stream = pc.open_stream(prompt, max_new_tokens=1)
        try:
            assert store.fabric_snapshot()["spills"] == 1  # b left DRAM
            cached = pc.prompt_token_count(prompt)[0]
            assert stream.cached_tokens == stream.shared_len == cached > 0
            assert pc.plan_stats.base_misses == 2  # rebuilt, not forked
            stream.prefill_step(1 << 20)
            expected = fresh.open_stream(prompt, max_new_tokens=1)
            expected.prefill_step(1 << 20)
            expected.abort()
            np.testing.assert_allclose(stream.logits, expected.logits, rtol=1e-4, atol=1e-4)
        finally:
            stream.abort()

    def test_base_lru_bound_frees_pages(self, llama, tok, monkeypatch):
        monkeypatch.setattr(engine_module, "BASE_CACHE_SIZE", 1)
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(TWO_MODULES)
        pc.serve('<prompt schema="duo2"><a/> q</prompt>', max_new_tokens=1)
        base_a = weakref.ref(next(iter(pc._bases.values())))
        pc.serve('<prompt schema="duo2"><b/> q</prompt>', max_new_tokens=1)
        assert len(pc._bases) == 1
        # The evicted base, with no fork live, is gone with what it held.
        assert base_a() is None


class TestServeBatchTierTokens:
    def test_batch_results_fill_tier_tokens(self, llama, tok):
        pc = make_pc(llama, tok)
        batch = pc.serve_batch(
            [PROMPT, '<prompt schema="doc"><d/> another ?</prompt>'],
            max_new_tokens=2,
        )
        for result in batch:
            assert result.tier_tokens["gpu"] > 0
            assert result.tier_tokens["gpu"] == result.cached_tokens


class TestMirrorLease:
    """A fork's hold on its base: taken at the open, given back at the
    finish, and never a right to write the base."""

    def test_decode_extends_in_place(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=4)
        stream = pc.open_stream(PROMPT, max_new_tokens=4)  # the base's second fork
        try:
            base = next(iter(pc._bases.values()))
            before = [[a.copy() for a in part] for part in base.kv.parts[0]]
            stream.run()
            tail = stream.cache.layers[0].tail
            # Suffix and decode tokens share the buffer the first append
            # allocated; the base is read, never written.
            assert len(tail) == len(stream.tail_kv(0)[2]) > 3
            assert tail._keys.shape[1] == stream.cache.capacity
            for (k, v), (k0, v0) in zip(base.kv.parts[0], before):
                np.testing.assert_array_equal(k, k0)
                np.testing.assert_array_equal(v, v0)
        finally:
            stream.finish()

    def test_lease_returns_after_free(self, llama, tok):
        pc = make_pc(llama, tok)
        for _ in range(3):
            pc.serve(PROMPT, max_new_tokens=3)
        base = next(iter(pc._bases.values()))
        assert pc.plan_stats.base_hits == 2 and base.kv.forks == 0  # every fork returned

    def test_concurrent_forks_stay_isolated(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPT, max_new_tokens=1)
        with pc._fastpath_lock:
            base = next(iter(pc._bases.values()))
            fork_a = base.kv.fork()
            fork_b = base.kv.fork()
        start = len(base.kv)
        ids = np.array(tok.encode(" what happened ?"))
        pos_a = np.arange(start, start + len(ids))
        la = pc.model.forward(ids, pos_a, fork_a)
        before = np.array(fork_a.layers[0].keys)
        other = np.array(tok.encode(" plan a trip now"))
        lb = pc.model.forward(other, np.arange(start, start + len(other)), fork_b)
        # fork_b's appends went to its own tail and left fork_a intact.
        np.testing.assert_array_equal(fork_a.layers[0].keys, before)
        assert not np.allclose(la[-1], lb[-1])
        fork_a.free()
        fork_b.free()


class TestSessionStillWorks:
    def test_session_on_arena_cache(self, llama, tok):
        pc = make_pc(llama, tok)
        session = pc.start_session(PROMPT)
        first = session.send("tell me more", max_new_tokens=3)
        second = session.send("and then ?", max_new_tokens=3)
        assert first.output_ids and second.output_ids

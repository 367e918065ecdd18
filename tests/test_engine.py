"""PromptCache end-to-end: the equivalence and correctness battery.

The heavyweight claims:

- **Prefix equivalence** — one module spanning the whole prefix makes
  cached inference *bit-exact* with the KV-cache baseline (this is vLLM-
  style prefix caching as a special case of Prompt Cache).
- **Scaffold equivalence** — importing a full scaffold set reproduces the
  baseline exactly, because joint encoding removes the masking
  approximation (§3.3).
- **Permutation invariance** — module import order does not change output
  (§3.4: "the order of concatenation does not matter").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.engine import PromptCache
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.pml import PLAIN_TEMPLATE, SchemaMismatchError
from repro.pml.errors import PMLError, UnknownSchemaError

TRAVEL = '''
<schema name="travel">
You are a helpful travel planner.
<module name="trip-plan">Plan a trip lasting <param name="duration" len="12"/> in total.</module>
<union>
  <module name="miami">Miami: beaches, nightlife, art deco and surf spots.</module>
  <module name="paris">Paris: museums, cafes, architecture and the louvre.</module>
</union>
</schema>
'''

DOC = (
    '<schema name="doc"><module name="d">the quick brown fox jumps over the '
    'lazy dog again and again</module></schema>'
)

SCAFFOLDED = (
    '<schema name="duo"><scaffold modules="a,b"/>'
    '<module name="a">the quick brown fox</module>'
    '<module name="b">jumps over the lazy dog</module></schema>'
)


@pytest.fixture()
def pc(any_model, tok):
    cache = PromptCache(any_model, tok, template=PLAIN_TEMPLATE)
    cache.register_schema(TRAVEL)
    return cache


@pytest.fixture()
def pc_llama(llama, tok):
    cache = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
    cache.register_schema(TRAVEL)
    return cache


class TestPrefixEquivalence:
    def test_greedy_output_bit_exact(self, any_model, tok):
        """Single module prefix + suffix == baseline, for all architectures."""
        pc = PromptCache(any_model, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(DOC)
        prompt = '<prompt schema="doc"><d/> plan a trip</prompt>'
        cached = pc.serve(prompt, max_new_tokens=8)
        baseline = pc.baseline(prompt, max_new_tokens=8)
        assert cached.output_ids == baseline.output_ids

    def test_kv_states_bit_exact(self, models, tok):
        """Stronger: the spliced prefix a stream holds equals the baseline
        prefill cache, for all architectures."""
        for model in models.values():
            pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
            pc.register_schema(DOC)
            # Baseline: prefill the module tokens directly.
            mod = pc.schemas["doc"].layout.module("d")
            ref = model.new_cache(capacity=len(mod.token_ids))
            model.forward(mod.token_ids, mod.positions, ref)
            stream = pc.open_stream('<prompt schema="doc"><d/> more text</prompt>')
            try:
                n = stream.shared_len
                assert n == len(ref)
                for layer_cached, layer_ref in zip(stream.cache.layers, ref.layers):
                    np.testing.assert_array_equal(layer_cached.keys[:, :n], layer_ref.keys)
                    np.testing.assert_array_equal(layer_cached.values[:, :n], layer_ref.values)
                    np.testing.assert_array_equal(layer_cached.positions[:n], layer_ref.positions)
            finally:
                stream.abort()


class TestScaffoldEquivalence:
    def test_full_scaffold_matches_baseline_exactly(self, any_model, tok):
        pc = PromptCache(any_model, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(SCAFFOLDED)
        prompt = '<prompt schema="duo"><a/><b/> what happened?</prompt>'
        cached = pc.serve(prompt, max_new_tokens=8)
        baseline = pc.baseline(prompt, max_new_tokens=8)
        assert cached.output_ids == baseline.output_ids

    def test_without_scaffold_states_differ(self, llama, tok):
        """Independent encoding is an approximation: module b's deep-layer
        states must differ between the solo and scaffold variants (b saw a
        during scaffold encoding). Greedy *outputs* may still coincide."""
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(SCAFFOLDED)
        prompt = '<prompt schema="duo"><a/><b/> what happened?</prompt>'
        scaffolded = pc.serve(prompt, max_new_tokens=4, use_scaffolds=True)
        baseline = pc.baseline(prompt, max_new_tokens=4)
        assert scaffolded.output_ids == baseline.output_ids

        solo = pc.store.fetch(CacheKey("duo", "b", "solo")).entry.kv
        scaff = pc.store.fetch(CacheKey("duo", "b", "scaffold0")).entry.kv
        assert not np.allclose(solo.keys[1], scaff.keys[1], atol=1e-6)

    def test_partial_scaffold_import_uses_solo_states(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(SCAFFOLDED)
        result = pc.serve('<prompt schema="duo"><a/> only a</prompt>', max_new_tokens=4)
        assert result.cached_tokens > 0


class TestPermutationInvariance:
    def test_import_order_irrelevant(self, pc_llama):
        a = pc_llama.serve(
            '<prompt schema="travel"><trip-plan/><miami/> go</prompt>', max_new_tokens=6
        )
        b = pc_llama.serve(
            '<prompt schema="travel"><miami/><trip-plan/> go</prompt>', max_new_tokens=6
        )
        assert a.output_ids == b.output_ids


class TestUnions:
    def test_union_members_selectable(self, pc):
        a = pc.serve('<prompt schema="travel"><miami/> go</prompt>', max_new_tokens=4)
        b = pc.serve('<prompt schema="travel"><paris/> go</prompt>', max_new_tokens=4)
        assert a.cached_tokens > 0 and b.cached_tokens > 0
        assert a.output_ids != b.output_ids or a.cached_tokens != b.cached_tokens

    def test_union_conflict_raises(self, pc):
        with pytest.raises(SchemaMismatchError):
            pc.serve('<prompt schema="travel"><miami/><paris/> x</prompt>')


class TestParameters:
    def test_argument_substitution_affects_output(self, pc_llama):
        a = pc_llama.serve(
            '<prompt schema="travel"><trip-plan duration="three days"/> go</prompt>',
            max_new_tokens=5,
        )
        b = pc_llama.serve(
            '<prompt schema="travel"><trip-plan duration="two weeks"/> go</prompt>',
            max_new_tokens=5,
        )
        assert a.uncached_tokens != b.uncached_tokens or a.output_ids != b.output_ids

    def test_too_long_argument_rejected(self, pc):
        with pytest.raises(SchemaMismatchError, match="tokens"):
            pc.serve(
                '<prompt schema="travel">'
                '<trip-plan duration="an exceedingly long duration argument that '
                'overflows the declared parameter slot by a wide margin"/> x</prompt>'
            )

    def test_shorter_argument_fits(self, pc):
        result = pc.serve(
            '<prompt schema="travel"><trip-plan duration="two"/> go</prompt>',
            max_new_tokens=3,
        )
        assert result.uncached_tokens > 0

    def test_unused_param_slots_excluded_from_cache(self, pc, tok):
        result = pc.serve('<prompt schema="travel"><trip-plan/> go</prompt>', max_new_tokens=3)
        layout = pc.schemas["travel"].layout
        mod = layout.module("trip-plan")
        # cached tokens = module direct tokens minus the 12 slot tokens,
        # plus the anonymous intro module.
        anon = layout.module(layout.always_included()[0])
        expected = (len(mod.token_ids) - 12) + len(anon.token_ids)
        assert result.cached_tokens == expected


class TestNewTextPlacement:
    def test_trailing_text_goes_to_tail(self, pc_llama):
        layout = pc_llama.schemas["travel"].layout
        resolved = pc_llama._resolve('<prompt schema="travel"><miami/> trailing words</prompt>')
        plan = pc_llama._plan(resolved, pc_llama.schemas["travel"])
        text_positions = plan.uncached[-1][1]
        assert text_positions[0] >= layout.module("miami").span_end

    def test_gap_reuse_when_module_excluded(self, pc_llama, tok):
        """Text after trip-plan fits into the union's hole when only one
        short member is selected... here: text after miami, with paris (same
        union) longer — the gap past miami's end is free."""
        resolved = pc_llama._resolve('<prompt schema="travel"><miami/>hi</prompt>')
        plan = pc_llama._plan(resolved, pc_llama.schemas["travel"])
        layout = pc_llama.schemas["travel"].layout
        text_positions = plan.uncached[-1][1]
        miami_end = layout.module("miami").span_end
        paris_end = layout.module("paris").span_end
        if miami_end < paris_end:  # a real gap exists
            assert text_positions[0] == miami_end

    def test_decode_positions_follow_all_content(self, pc):
        result = pc.serve(
            '<prompt schema="travel"><miami/> some extra questions here</prompt>',
            max_new_tokens=3,
        )
        assert result.output_ids  # generated without position collisions


def demote_to_dram(store: ModuleCacheStore) -> None:
    """Move every fast-tier entry down to DRAM, as a capacity demotion
    would: a fresh encode always lands in the fast tier."""
    for key in store.gpu.keys():
        kv = store.gpu.peek(key).kv
        store.gpu.remove(key)
        store.put(key, kv, tier="cpu")


class TestStorageIntegration:
    def test_eager_registration_precomputes(self, llama, tok):
        store = ModuleCacheStore()
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(TRAVEL, eager=True)
        assert len(store.gpu.keys()) >= 3  # anon + trip-plan + miami + paris

    def test_lazy_registration_encodes_on_demand(self, llama, tok):
        store = ModuleCacheStore()
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(TRAVEL, eager=False)
        assert len(store.gpu.keys()) == 0
        pc.serve('<prompt schema="travel"><miami/> x</prompt>', max_new_tokens=2)
        assert any(k.module == "miami" for k in store.gpu.keys())

    def test_cpu_tier_serving(self, llama, tok):
        store = ModuleCacheStore(gpu_capacity_bytes=0)
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(TRAVEL)  # no fast tier: every encode falls back to DRAM
        result = pc.serve('<prompt schema="travel"><miami/> x</prompt>', max_new_tokens=2)
        assert result.tier_tokens["cpu"] > 0
        assert result.tier_tokens["gpu"] == 0

    def test_hits_accumulate_across_serves(self, llama, tok):
        store = ModuleCacheStore()
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(TRAVEL)
        before = store.gpu.stats.hits
        pc.serve('<prompt schema="travel"><miami/> x</prompt>', max_new_tokens=2)
        pc.serve('<prompt schema="travel"><miami/> y</prompt>', max_new_tokens=2)
        assert store.gpu.stats.hits > before

    def test_cpu_hit_inside_the_horizon_promotes(self, llama, tok):
        """A module hit in DRAM at a cadence inside placement's horizon
        is promoted to the fast tier."""
        t = [0.0]
        store = ModuleCacheStore(clock=lambda: t[0])
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(TRAVEL)  # the encode's lookup: one arrival
        demote_to_dram(store)
        assert any(k.module == "miami" for k in store.cpu.keys())
        t[0] = 1.0  # the next, 1 s on: inside placement's 2 s horizon
        pc.serve('<prompt schema="travel"><miami/> x</prompt>', max_new_tokens=2)
        assert any(k.module == "miami" for k in store.gpu.keys())

    def test_cpu_hit_stays_put_by_default(self, llama, tok):
        """A DRAM hit a long while after the module's last arrival is not
        worth the promotion copy."""
        t = [0.0]
        store = ModuleCacheStore(clock=lambda: t[0])
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(TRAVEL)
        demote_to_dram(store)
        t[0] = 100.0
        pc.serve('<prompt schema="travel"><miami/> x</prompt>', max_new_tokens=2)
        assert not any(k.module == "miami" for k in store.gpu.keys())


class TestServeResult:
    def test_latency_breakdown(self, pc):
        result = pc.serve('<prompt schema="travel"><miami/> go now</prompt>', max_new_tokens=4)
        assert result.ttft_s == pytest.approx(result.splice_s + result.suffix_s)
        assert result.prompt_tokens == result.cached_tokens + result.uncached_tokens
        assert len(result.step_times_s) == 3

    def test_text_decoded(self, pc):
        result = pc.serve('<prompt schema="travel"><miami/> go</prompt>', max_new_tokens=4)
        assert isinstance(result.text, str)

    def test_fully_cached_prompt(self, pc):
        result = pc.serve('<prompt schema="travel"><miami/></prompt>', max_new_tokens=3)
        # One token is recomputed to obtain first logits.
        assert result.uncached_tokens == 1
        assert result.output_ids

    def test_prompt_token_count(self, pc):
        cached, uncached = pc.prompt_token_count(
            '<prompt schema="travel"><miami/> question?</prompt>'
        )
        assert cached > 0 and uncached > 0


class TestErrors:
    def test_unregistered_schema(self, pc):
        with pytest.raises(SchemaMismatchError, match="not registered"):
            pc.serve('<prompt schema="ghost"><x/></prompt>')

    def test_unregistered_schema_is_typed(self, pc):
        with pytest.raises(UnknownSchemaError) as err:
            pc.serve('<prompt schema="ghost"><x/></prompt>')
        assert err.value.schema == "ghost"
        assert "travel" in err.value.known

    def test_unregistered_schema_everywhere(self, pc):
        ghost = '<prompt schema="ghost"><x/></prompt>'
        with pytest.raises(UnknownSchemaError):
            pc.serve_batch([ghost])
        with pytest.raises(UnknownSchemaError):
            pc.start_session(ghost)
        with pytest.raises(UnknownSchemaError):
            pc.update_module_text("ghost", "m", "text")
        with pytest.raises(UnknownSchemaError):
            pc.prompt_token_count(ghost)

    def test_schema_exceeding_max_position(self, llama, tok):
        huge_text = "word " * 6000  # tiny model allows 4096 positions
        with pytest.raises(PMLError, match="positions"):
            PromptCache(llama, tok, template=PLAIN_TEMPLATE).register_schema(
                f'<schema name="huge"><module name="m">{huge_text}</module></schema>'
            )


class TestServeBatch:
    SCHEMA = (
        '<schema name="batch"><module name="doc">the quick brown fox jumps '
        "over the lazy dog again and again</module>"
        '<module name="alt">paris museums cafes architecture seine</module></schema>'
    )

    def make_pc(self, llama, tok):
        from repro.pml import PLAIN_TEMPLATE

        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)
        return pc

    def test_outputs_match_individual_serving(self, llama, tok):
        pc = self.make_pc(llama, tok)
        prompts = [
            '<prompt schema="batch"><doc/> question one ?</prompt>',
            '<prompt schema="batch"><doc/> another question entirely ?</prompt>',
            '<prompt schema="batch"><doc/> a third ask</prompt>',
        ]
        batch = pc.serve_batch(prompts, max_new_tokens=5)
        for prompt, result in zip(prompts, batch):
            solo = pc.serve(prompt, max_new_tokens=5)
            assert result.output_ids == solo.output_ids

    def test_memory_shared_within_group(self, llama, tok):
        # A long module: the shared base dominates the batch's bytes.
        long_doc = "the quick brown fox jumps over the lazy dog . " * 12
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(
            f'<schema name="big"><module name="doc">{long_doc}</module></schema>'
        )
        prompts = [
            f'<prompt schema="big"><doc/> request number {i} ?</prompt>'
            for i in range(6)
        ]
        batch = pc.serve_batch(prompts, max_new_tokens=2)
        assert batch.shared_groups == 1
        assert batch.memory_savings > 0.4

    def test_tiny_modules_share_too(self, llama, tok):
        """Forks read their base by reference, whatever its size: four
        requests over one short module hold it once, plus their own
        suffixes (one token each is sampled, none forwarded)."""
        pc = self.make_pc(llama, tok)
        prompts = [
            f'<prompt schema="batch"><alt/> request {i}</prompt>' for i in range(4)
        ]
        batch = pc.serve_batch(prompts, max_new_tokens=1)
        cfg = llama.config
        per_token = cfg.n_layers * (2 * cfg.n_kv_heads * cfg.head_dim * 4 + 8)
        cached = batch.results[0].cached_tokens
        suffixes = sum(r.uncached_tokens for r in batch)
        assert batch.physical_bytes == (cached + suffixes) * per_token
        assert batch.duplicated_bytes == (4 * cached + suffixes) * per_token
        assert batch.memory_savings > 0.1

    def test_distinct_module_sets_form_groups(self, llama, tok):
        pc = self.make_pc(llama, tok)
        batch = pc.serve_batch(
            [
                '<prompt schema="batch"><doc/> q</prompt>',
                '<prompt schema="batch"><alt/> q</prompt>',
                '<prompt schema="batch"><doc/><alt/> q</prompt>',
            ],
            max_new_tokens=2,
        )
        assert batch.shared_groups == 3
        assert len(batch) == 3

    def test_batch_result_iterates(self, llama, tok):
        pc = self.make_pc(llama, tok)
        batch = pc.serve_batch(
            ['<prompt schema="batch"><doc/> x</prompt>'], max_new_tokens=2
        )
        assert len(list(batch)) == 1

"""The packed prefill against its references.

``TransformerModel.forward(ids, positions, [(cache, rows), ...])`` runs
the prompt chunks of several sequences in one pass. Three layers of
evidence that it is the same computation as one ``forward`` per
sequence:

- **Kernel.** ``plan_packed_prefill`` + ``packed_prefill_attention``
  equal single-pass float64 attention over each sequence's own keys
  under the position-ID mask — ragged packs, empty and non-empty flat
  caches, forks of shared bases read as their modules' parts, a param
  sitting *below* a cached
  module (the mask must bite) and a suffix above everything cached (the
  mask-free branch), MHA and GQA, with and without ALiBi.
- **Whole calls.** Over all four families (RoPE sequential and parallel
  block, ALiBi, learned positions with biases), MHA and GQA: the K/V a
  packed call appends and its last-row logits equal per-sequence
  ``forward`` to float32 tolerance, argmax included.
- **Failure isolation.** Under the page auditor: a stream whose
  positions the model cannot place fails alone before the pack is
  formed; an exception inside the packed forward fails every stream in
  it; either way base forks and arena seats balance.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    assert_quiescent,
    install_sanitizers,
    uninstall_sanitizers,
)
from repro.cache.engine import PromptCache
from repro.llm import build_model, tiny_config
from repro.llm.attention import packed_prefill_attention, plan_packed_prefill
from repro.llm.kv import KVCache, ModuleKV
from repro.llm.paged import ForkCache, SplicedKV, TailArena
from repro.llm.positional import AlibiBias
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler
from repro.server.request import LiveRequest
from tests.test_chunk_attention import dense_reference, kernel_config

VOCAB = 97

# One segment of a pack: where its cache comes from and how many rows it
# prefills. "flat" is a private cache (``earlier`` tokens already in it: a
# continuing chunk), "fork" a fork of base 0 or 1 prefilling above
# everything cached, "param" a fork of the gapped base 2 whose rows start
# inside the gap — below the module cached after it.
segment_specs = st.lists(
    st.tuples(
        st.sampled_from(["flat", "fork", "param"]),
        st.integers(0, 1),  # which shared base (fork)
        st.integers(0, 9),  # earlier tokens (flat)
        st.integers(1, 12),  # rows
    ),
    min_size=1,
    max_size=6,
)

GAP = 6  # positions left open for the param between the gapped base's modules


def random_module(rng, config, positions):
    shape = (config.n_kv_heads, len(positions), config.head_dim)
    layers = range(config.n_layers)
    return ModuleKV(
        keys=[rng.normal(size=shape).astype(np.float32) for _ in layers],
        values=[rng.normal(size=shape).astype(np.float32) for _ in layers],
        positions=np.asarray(positions),
    )


def shared_bases(rng, config):
    """Two contiguous bases and a gapped one (two modules, ``GAP`` open
    positions between them); each is read as its modules' parts."""
    lengths = [int(rng.integers(1, 40)) for _ in range(2)]
    bases = [
        SplicedKV.from_module_kvs(config, [random_module(rng, config, range(n))])
        for n in lengths
    ]
    first, second = int(rng.integers(1, 20)), int(rng.integers(1, 20))
    bases.append(
        SplicedKV.from_module_kvs(config, [
            random_module(rng, config, range(first)),
            random_module(rng, config, range(first + GAP, first + GAP + second)),
        ])
    )
    return bases, first


def segment_positions(kind, cache, earlier, rows, gap_start):
    """Position IDs of a segment's rows (see ``segment_specs``)."""
    if kind == "param":
        # Fill the gap, then jump over the later module.
        inside = np.arange(gap_start, gap_start + min(rows, GAP))
        above = cache.layers[0].max_position + 1 + np.arange(rows - len(inside))
        return np.concatenate([inside, above])
    start = cache.layers[0].max_position + 1 if len(cache) else 0
    return np.arange(start, start + rows)


def mask_bias(q_positions, k_positions):
    return np.where(k_positions[None, :] <= q_positions[:, None], 0.0, -1e9)


class TestPackedAttentionKernel:
    @given(
        seed=st.integers(0, 2**16),
        specs=segment_specs,
        n_kv=st.integers(1, 2),
        n_rep=st.sampled_from([1, 2, 4]),
        use_alibi=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, seed, specs, n_kv, n_rep, use_alibi):
        rng = np.random.default_rng(seed)
        config = kernel_config(n_kv, n_rep, 4)
        alibi = AlibiBias(config.n_heads, config.max_position) if use_alibi else None
        bases, gap_start = shared_bases(rng, config)

        caches, positions = [], []
        for kind, which, earlier, rows in specs:
            if kind == "flat":
                cache = KVCache.empty(config, capacity=4)
                old = random_module(rng, config, range(earlier))
                cache.layers[0].append(old.keys[0], old.values[0], old.positions)
            else:
                cache = bases[2 if kind == "param" else which].fork()
            caches.append(cache)
            positions.append(segment_positions(kind, cache, earlier, rows, gap_start))
        before = [
            (c.layers[0].keys.copy(), c.layers[0].values.copy(), c.layers[0].positions.copy())
            for c in caches
        ]
        packed = np.concatenate(positions)
        total = len(packed)
        q = rng.normal(size=(total, config.n_heads, 4)).astype(np.float32)
        k = rng.normal(size=(total, n_kv, 4)).astype(np.float32)
        v = rng.normal(size=(total, n_kv, 4)).astype(np.float32)

        plan = plan_packed_prefill(
            [(cache, len(p)) for cache, p in zip(caches, positions)], packed, alibi
        )
        out = packed_prefill_attention(plan, 0, q, k, v)

        for seg, cache, (old_k, old_v, old_p), (kind, *_) in zip(plan, caches, before, specs):
            span = slice(seg.start, seg.stop)
            keys = np.concatenate([old_k, k[span].transpose(1, 0, 2)], axis=1)
            values = np.concatenate([old_v, v[span].transpose(1, 0, 2)], axis=1)
            k_positions = np.concatenate([old_p, packed[span]])
            layer = cache.layers[0]
            np.testing.assert_array_equal(layer.keys, keys)
            np.testing.assert_array_equal(layer.values, values)
            np.testing.assert_array_equal(layer.positions, k_positions)
            # The base block goes unmasked exactly when nothing cached
            # lies above the chunk's lowest position.
            assert (seg.bias_from == 0) == (
                use_alibi or len(old_p) == 0 or old_p.max() > packed[span].min()
            )
            if kind == "param":
                assert old_p.max() > packed[span].min()  # the mask has to bite
            bias = mask_bias(packed[span], k_positions)
            if alibi is not None:
                bias = bias + alibi.bias(packed[span], k_positions)
            expected = dense_reference(
                q[span].transpose(1, 0, 2), keys, values, n_rep, bias=bias
            )
            np.testing.assert_allclose(
                out[span],
                expected.transpose(1, 0, 2).reshape(seg.stop - seg.start, -1),
                rtol=1e-4, atol=1e-5,
            )
        for cache in caches:
            if isinstance(cache, ForkCache):
                cache.free()
        assert all(base.forks == 0 for base in bases)

    def test_rows_must_cover_the_pack(self):
        config = kernel_config(1, 1, 4)
        with pytest.raises(ValueError, match="segments cover 2 rows"):
            plan_packed_prefill([(KVCache.empty(config), 2)], np.arange(3))


# -- whole calls ------------------------------------------------------------------


@cache
def family_model(architecture: str, gqa: bool):
    """A tiny model of one family — MHA or grouped-query — whose biases,
    zero at initialisation, are randomised so that they count."""
    config = tiny_config(architecture, vocab_size=VOCAB)
    if gqa:
        config = replace(config, n_kv_heads=config.n_heads // 2)
    model = build_model(config, seed=3)
    rng = np.random.default_rng(4)
    for name, value in model.params.items():
        if name.endswith(("bias", ".bq", ".bk", ".bv", ".bo")) and "norm" not in name:
            value[...] = 0.1 * rng.normal(size=value.shape)
    return model


def assert_same_logits(row, expected):
    """Float32 tolerance, and the same greedy token."""
    np.testing.assert_allclose(row, expected, rtol=1e-4, atol=1e-4)
    runner_up, best = np.sort(expected)[-2:]
    if best - runner_up > 1e-3:  # not a tie float32 could break either way
        assert row.argmax() == expected.argmax()


class TestPackedForward:
    @given(
        seed=st.integers(0, 2**16),
        specs=segment_specs,
        architecture=st.sampled_from(["llama", "falcon", "mpt", "gpt2"]),
        gqa=st.booleans(),
        seat=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_sequence_forward(self, seed, specs, architecture, gqa, seat):
        """The packed prefill, and one batched decode step on top of it —
        forks in the tail arena (``seat``) or on their own caches, flat
        caches and masked param streams always unseated — against the
        ``forward`` on a cache of its own (a pack of one)."""
        rng = np.random.default_rng(seed)
        model = family_model(architecture, gqa)
        config = model.config
        bases, gap_start = shared_bases(rng, config)

        def make_cache(kind, which, earlier_ids):
            if kind != "flat":
                return bases[2 if kind == "param" else which].fork()
            cache = model.new_cache(capacity=4)
            if len(earlier_ids):
                model.forward(earlier_ids, np.arange(len(earlier_ids)), cache)
            return cache

        segments, chunks, reference = [], [], []
        for kind, which, earlier, rows in specs:
            earlier_ids = rng.integers(0, VOCAB, size=earlier)
            ids = rng.integers(0, VOCAB, size=rows)
            alone = make_cache(kind, which, earlier_ids)
            positions = segment_positions(kind, alone, earlier, rows, gap_start)
            reference.append((alone, model.forward(ids, positions, alone)[-1]))
            segments.append((make_cache(kind, which, earlier_ids), rows))
            chunks.append((ids, positions))

        logits = model.forward(
            np.concatenate([ids for ids, _ in chunks]),
            np.concatenate([positions for _, positions in chunks]),
            segments,
        )
        assert logits.shape == (len(specs), VOCAB) and logits.flags.c_contiguous
        for (cache, _), (alone, expected), row in zip(segments, reference, logits):
            assert len(cache) == len(alone)
            for packed_layer, alone_layer in zip(cache.layers, alone.layers):
                np.testing.assert_array_equal(packed_layer.positions, alone_layer.positions)
                np.testing.assert_allclose(
                    packed_layer.keys, alone_layer.keys, rtol=1e-4, atol=1e-5
                )
                np.testing.assert_allclose(
                    packed_layer.values, alone_layer.values, rtol=1e-4, atol=1e-5
                )
            assert_same_logits(row, expected)

        arena = TailArena(config, slots=len(specs))
        groups: dict[int, list[int]] = {}
        for b, ((kind, which, *_), (cache, _)) in enumerate(zip(specs, segments)):
            if seat and kind == "fork":
                assert arena.seat(cache) is cache.tail
                groups.setdefault(which, []).append(b)
        ids = rng.integers(0, VOCAB, size=len(specs))
        positions = np.asarray([positions[-1] + 1 for _, positions in chunks])
        step = model.forward_decode_batch(
            ids, positions, [cache for cache, _ in segments],
            [(members, len(bases[which])) for which, members in groups.items()],
        )
        for b, (alone, _) in enumerate(reference):
            expected = model.forward(ids[b : b + 1], positions[b : b + 1], alone)[-1]
            assert_same_logits(step[b], expected)
            assert len(segments[b][0]) == len(alone)

        for cache, _ in segments:
            if isinstance(cache, ForkCache):
                cache.free()
        for alone, _ in reference:
            if isinstance(alone, ForkCache):
                alone.free()
        assert all(base.forks == 0 for base in bases)
        assert arena.live_slots == 0

    def test_without_logits_the_same_kv_is_appended(self, any_model):
        """``logits=False`` — the call a chunk that does not complete its
        prompt gets — stops the last layer at its K/V append and changes
        no K/V (``test_prefill_trim`` pins this across families)."""
        rng = np.random.default_rng(0)
        ids = rng.integers(0, any_model.config.vocab_size, size=9)
        positions = np.concatenate([np.arange(5), np.arange(4)])
        with_logits = [(any_model.new_cache(), 5), (any_model.new_cache(), 4)]
        without = [(any_model.new_cache(), 5), (any_model.new_cache(), 4)]
        assert any_model.forward(ids, positions, with_logits).shape[0] == 2
        assert any_model.forward(ids, positions, without, logits=False) is None
        for (a, _), (b, _) in zip(with_logits, without):
            for layer_a, layer_b in zip(a.layers, b.layers):
                np.testing.assert_array_equal(layer_a.keys, layer_b.keys)
                np.testing.assert_array_equal(layer_a.values, layer_b.values)


# -- failure isolation ------------------------------------------------------------


SCHEMA = (
    '<schema name="trip">'
    '<module name="plan">plan a trip lasting three days focus on food '
    "the quick brown fox jumps over the lazy dog</module>"
    '<module name="city">paris museums cafes architecture louvre seine'
    "</module>"
    "</schema>"
)
PROMPTS = [
    '<prompt schema="trip"><plan/><city/> answer the question</prompt>',
    '<prompt schema="trip"><plan/><city/> miami beaches nightlife</prompt>',
    '<prompt schema="trip"><plan/> the capital of atlantis</prompt>',
    '<prompt schema="trip"><city/> def main(): return</prompt>',
]


class Unplaceable(PromptCache):
    """Streams of prompts containing ``atlantis`` come back with their
    suffix moved past the model's last position."""

    def open_stream(self, prompt, **kwargs):
        stream = super().open_stream(prompt, **kwargs)
        if "atlantis" in prompt:
            stream._pending_positions = (
                stream._pending_positions + self.model.config.max_position
            )
        return stream


def requests(prompts, max_new_tokens=4):
    return [
        LiveRequest(request_id=f"r{i}", prompt=p, schema="trip",
                    max_new_tokens=max_new_tokens, submitted_at=0.0)
        for i, p in enumerate(prompts)
    ]


def drain(sched, admissions):
    """Run ``sched`` until idle; ``{request_id: (result, error)}``."""
    done = {}
    while admissions or sched.active:
        outcome = sched.iterate(admissions)
        admissions = []
        for request, result, error, _ in outcome.finished:
            done[request.request_id] = (result, error)
    return done


@pytest.fixture
def audited():
    """The page auditor (the session's, under ``REPRO_SANITIZE=1``), which
    must not have seen a violation by the time the test is over."""
    already = sanitize.active_auditor()
    auditor = install_sanitizers()
    errors = auditor.errors_raised
    try:
        yield auditor
        assert auditor.errors_raised == errors
    finally:
        if already is None:
            uninstall_sanitizers()


def spliced_bases(pc):
    return [base.kv for base in pc._bases.values()]


def assert_forks_returned(pc):
    assert_quiescent(*spliced_bases(pc))


class TestFailureIsolation:
    def test_unplaceable_positions_fail_that_stream_alone(self, llama, tok, audited):
        pc = Unplaceable(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        # A fifth stream on the pair's base: the step stays wide enough
        # to seat them after the bad one has gone.
        prompts = [*PROMPTS, PROMPTS[0]]
        expected = {
            i: pc.serve(prompts[i], max_new_tokens=4).output_ids for i in (0, 1, 3, 4)
        }
        sched = ContinuousScheduler(pc, max_inflight=5)
        with audited.expect_balanced(*spliced_bases(pc)):
            first = sched.iterate(requests(prompts))
            # The bad prompt failed before the pack was formed; the other
            # four shared one forward and each made its first token.
            assert first.admitted == 5 and first.prefill_batch == 4
            (failed, result, error, _), = first.finished
            assert failed.request_id == "r2" and result is None
            assert isinstance(error, ValueError) and "position ids" in str(error)
            assert first.tokens == 4 and sched.active == 4
            assert first.shared_group_sizes == [3]
            done = drain(sched, [])
        for i in (0, 1, 3, 4):
            result, error = done[f"r{i}"]
            assert error is None and result.output_ids == expected[i]
        assert_quiescent(sched._arena)
        assert_forks_returned(pc)

    def test_poisoned_packed_forward_fails_every_participant(self, llama, tok, audited):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        expected = [pc.serve(p, max_new_tokens=4).output_ids for p in PROMPTS]
        sched = ContinuousScheduler(pc, max_inflight=4)
        real_forward = llama.forward

        def poisoned(token_ids, position_ids, cache, **kwargs):
            if isinstance(cache, list):
                raise FloatingPointError("poisoned pack")
            return real_forward(token_ids, position_ids, cache, **kwargs)

        with audited.expect_balanced(*spliced_bases(pc)):
            llama.forward = poisoned
            try:
                outcome = sched.iterate(requests(PROMPTS))
            finally:
                del llama.forward
            assert outcome.admitted == 4 and outcome.prefill_batch == 0
            assert outcome.tokens == 0 and outcome.prefill_tokens == 0
            assert sorted(r.request_id for r, *_ in outcome.finished) == [
                "r0", "r1", "r2", "r3"
            ]
            assert all(isinstance(e, FloatingPointError) for *_, e, _ in outcome.finished)
            assert sched.active == 0
            # The engine is none the worse: the same prompts serve next.
            done = drain(sched, requests(PROMPTS))
        assert [done[f"r{i}"][0].output_ids for i in range(4)] == expected
        assert sched._arena is not None  # the pair on one base was seated
        assert_quiescent(sched._arena)
        assert_forks_returned(pc)

"""Shared-prefix batched attention (ChunkAttention's partition, one softmax).

Four layers of coverage for the shared-prefix decode path:

- Kernel properties: splitting a row's keys at any point into the base
  (its modules' parts, read in place) and its arena tail, :func:`arena_decode_attention`'s one
  softmax over both reproduces single-pass softmax attention against a
  float64 reference to tight tolerance — across GQA head groupings,
  ALiBi over gapped positions, stacked group members, and empty arena
  rows, which leave every seated row bit-identical.
- The batched decode step's attention: whole steps over a
  :class:`~repro.llm.paged.TailArena` — random bases, group sizes,
  ragged tails, retirements and re-seats, with every row seated, none,
  or a mix beside flat caches, unseated forks and masked param streams —
  against the same float64 reference per sequence.
- Scheduler policy: the one seating rule that turns stream-level
  grouping keys into seated groups, its thresholds, and the share
  accounting read off who actually holds a seat.
- Serving contract: greedy decode through the continuous scheduler with
  the arena path engaged is byte-identical to whole-request
  ``serve`` across all four positional families, and the share-factor
  metrics reach the Prometheus exposition.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.engine import PromptCache
from repro.llm.attention import (
    arena_decode_attention,
    decode_step_attention,
    plan_decode_step,
)
from repro.llm.config import ModelConfig
from repro.llm.kv import KVCache, ModuleKV
from repro.llm.paged import SplicedKV, TailArena
from repro.llm.positional import AlibiBias
from repro.pml.chat import PLAIN_TEMPLATE
from repro.reuse import DiscoveryConfig
from repro.server import ContinuousScheduler, LiveServer, ServeOptions
from repro.server.request import LiveRequest
from repro.server.scheduler import SEAT_MIN_BATCH, SEAT_MIN_GROUP, IterationOutcome
from tests.stubs import StubCache


def run(coro):
    return asyncio.run(coro)


# -- kernel properties -----------------------------------------------------------


def dense_reference(q, k, v, n_rep, bias=None):
    """Single-pass softmax attention in float64 — the ground truth any
    split of the KV range must reproduce. Uses the kernel's own float32
    scale so only the split's reassociation is under test."""
    kk = np.repeat(k, n_rep, axis=-3).astype(np.float64)
    vv = np.repeat(v, n_rep, axis=-3).astype(np.float64)
    scores = q.astype(np.float64) @ np.swapaxes(kk, -2, -1)
    scores /= np.sqrt(np.float32(q.shape[-1]))
    if bias is not None:
        scores = scores + bias.astype(np.float64)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights @ vv


def kernel_config(n_kv, n_rep, head_dim):
    return ModelConfig(
        name="kernel", architecture="llama", vocab_size=8,
        d_model=n_kv * n_rep * head_dim, n_layers=1, n_heads=n_kv * n_rep,
        n_kv_heads=n_kv, d_ff=8, max_position=4096, positional="rope",
        norm="rmsnorm", mlp="swiglu", parallel_block=False,
    )


def split_step(q, k, v, cut, positions=None, *, alibi=None, grouped=True,
               free_below=0, tails=None, modules=1):
    """One :func:`arena_decode_attention` call for ``len(q)`` members of
    one group, the keys split at ``cut``: ``k[:, :cut]`` is the shared
    base, ``k[:, cut:-1]`` every member's seated tail and ``k[:, -1]``
    the step's own K/V, at the last (highest) position. The base is one
    module, or with ``modules`` > 1 that many modules' parts, read in
    place (as many as the cut leaves room for).

    ``q`` is (members, n_heads, head_dim) and ``k``/``v`` (n_kv_heads,
    T, head_dim); ``tails`` optionally gives member ``i`` its own
    ``(k, v)`` in place of ``k``/``v`` from ``cut`` on. ``grouped`` off
    lists nobody, so every member is a group of one; ``free_below``
    seats that many other tails first and frees them, leaving empty
    arena rows under the members'. Returns the context (members, n_heads,
    head_dim) in member order."""
    members, n_heads, head_dim = q.shape
    n_kv, total = k.shape[:2]
    config = kernel_config(n_kv, n_heads // n_kv, head_dim)
    positions = np.arange(total) if positions is None else positions
    tails = tails or [(k, v)] * members
    bounds = np.linspace(0, cut, min(modules, cut) + 1).astype(int)
    base = SplicedKV.from_module_kvs(config, [
        ModuleKV(keys=[k[:, a:b]], values=[v[:, a:b]], positions=positions[a:b])
        for a, b in zip(bounds, bounds[1:])
    ])
    arena = TailArena(config, slots=free_below + members)
    fillers = [base.fork() for _ in range(free_below)]
    for filler in fillers:
        arena.seat(filler)
    caches = []
    for tail_k, tail_v in tails:
        cache = base.fork()
        if total - 1 > cut:
            cache.layers[0].append(
                tail_k[:, cut:-1], tail_v[:, cut:-1], positions[cut:-1]
            )
        caches.append(cache)
    for cache in caches:
        assert arena.seat(cache) is cache.tail
    for filler in fillers:
        filler.free()
    step = plan_decode_step(
        caches, np.full(members, positions[-1]),
        [(list(range(members)), cut)] if grouped else None,
        n_heads=n_heads, n_kv_heads=n_kv, alibi=alibi,
    )
    assert step.rows == free_below + members
    new_k = np.stack([tail_k[:, -1] for tail_k, _ in tails])
    new_v = np.stack([tail_v[:, -1] for _, tail_v in tails])
    out = arena_decode_attention(
        step, 0, q[step.order], new_k[step.order], new_v[step.order]
    )
    context = np.empty_like(out)
    context[step.order] = out
    for cache in caches:
        cache.free()
    assert base.forks == 0
    return context.reshape(q.shape)


class TestMergeOnlineSoftmax:
    """Each seated row's one softmax over [base | arena tail]
    (:func:`arena_decode_attention`) against a single float64 pass over
    the concatenated keys — wherever the split between the two falls."""

    @given(
        seed=st.integers(0, 2**16),
        n_kv=st.integers(1, 3),
        n_rep=st.sampled_from([1, 2, 4]),
        head_dim=st.sampled_from([4, 8]),
        tq=st.integers(1, 3),
        tk=st.integers(2, 24),
        cuts=st.lists(st.integers(0, 24), max_size=4),
        q_scale=st.sampled_from([1.0, 8.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_splits_match_single_pass(
        self, seed, n_kv, n_rep, head_dim, tq, tk, cuts, q_scale
    ):
        """The kernel's whole correctness argument: any split of a row's
        keys into base and tail — one part or three read in place,
        a one-token base, a tail that is only the step's own token, GQA
        foldings, ``tq`` members sharing the group, and large score
        magnitudes exercising the shared max — matches the single
        pass."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(tq, n_kv * n_rep, head_dim)).astype(np.float32)
        q *= np.float32(q_scale)
        k = rng.normal(size=(n_kv, tk, head_dim)).astype(np.float32)
        v = rng.normal(size=(n_kv, tk, head_dim)).astype(np.float32)
        expected = dense_reference(q.transpose(1, 0, 2), k, v, n_rep).transpose(1, 0, 2)
        for cut in sorted({1, tk - 1, *(min(max(c, 1), tk - 1) for c in cuts)}):
            for modules in (1, 3):
                np.testing.assert_allclose(
                    split_step(q, k, v, cut, modules=modules), expected,
                    rtol=1e-4, atol=1e-5,
                )

    @given(seed=st.integers(0, 2**16), split=st.integers(1, 11))
    @settings(max_examples=40, deadline=None)
    def test_bias_splits_with_the_chunks(self, seed, split):
        """ALiBi over the base and over the tail, each built from
        its own key positions — with the gap PML leaves between a module
        and the suffix — is the single pass's bias split at the cut."""
        rng = np.random.default_rng(seed)
        heads, tk, hd = 4, 12, 8
        q = rng.normal(size=(1, heads, hd)).astype(np.float32)
        k = rng.normal(size=(heads, tk, hd)).astype(np.float32)
        v = rng.normal(size=(heads, tk, hd)).astype(np.float32)
        positions = np.concatenate([np.arange(split), np.arange(split, tk) + 5])
        alibi = AlibiBias(heads, 4096)
        bias = alibi.bias(positions[-1:], positions)
        np.testing.assert_allclose(
            split_step(q, k, v, split, positions, alibi=alibi)[0],
            dense_reference(q[0][:, None], k, v, 1, bias=bias)[:, 0],
            rtol=1e-4,
            atol=1e-5,
        )

    def test_stacked_slices_match_per_member_calls(self):
        """The group stacking trick: one GEMM over the base for a group's
        members and their GQA repeats gives each member what the same
        step gives it as a group of one, and both are the single pass.
        Stacking changes the GEMM's row count, which OpenBLAS may block
        differently, so the two agree to float32 rounding, not bits."""
        rng = np.random.default_rng(3)
        stack, n_kv, n_rep, hd, tk = 5, 2, 2, 8, 17
        q = rng.normal(size=(stack, n_kv * n_rep, hd)).astype(np.float32)
        k = rng.normal(size=(n_kv, tk, hd)).astype(np.float32)
        v = rng.normal(size=(n_kv, tk, hd)).astype(np.float32)
        stacked = split_step(q, k, v, 11)
        np.testing.assert_allclose(
            stacked, split_step(q, k, v, 11, grouped=False), rtol=1e-5, atol=1e-6
        )
        expected = dense_reference(q.transpose(1, 0, 2), k, v, n_rep).transpose(1, 0, 2)
        np.testing.assert_allclose(stacked, expected, rtol=1e-4, atol=1e-5)

    def test_empty_chunk_merges_as_exact_identity(self):
        """Empty parts must not perturb a row even in the last ulp: free
        arena rows under the seated ones — no tail, masked whole, zero
        queries — ride the tail GEMM without touching anyone's result."""
        rng = np.random.default_rng(7)
        q = rng.normal(size=(2, 2, 4)).astype(np.float32)
        k = rng.normal(size=(2, 9, 4)).astype(np.float32)
        v = rng.normal(size=(2, 9, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            split_step(q, k, v, 5), split_step(q, k, v, 5, free_below=3)
        )

    def test_merge_requires_a_partial(self):
        """The kernel is for seated rows: a step with none is refused."""
        config = kernel_config(1, 1, 4)
        step = plan_decode_step(
            [KVCache.empty(config)], np.asarray([0]), None,
            n_heads=1, n_kv_heads=1,
        )
        empty = np.zeros((0, 1, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            arena_decode_attention(step, 0, empty, empty, empty)

    def test_partial_indexing_selects_one_member(self):
        """A member's row reads only its own query and tail (and the
        base): rewriting every other member's leaves it bit-identical."""
        rng = np.random.default_rng(11)
        members, n_kv, hd, tk = 3, 2, 4, 10

        def normal(*shape):
            return rng.normal(size=shape).astype(np.float32)

        k, v = normal(n_kv, tk, hd), normal(n_kv, tk, hd)
        q = normal(members, n_kv, hd)
        tails = [(k, v)] + [(normal(n_kv, tk, hd), normal(n_kv, tk, hd)) for _ in "ab"]
        first = split_step(q, k, v, 6, tails=tails)
        q[1:] = normal(members - 1, n_kv, hd)
        tails[1:] = [(normal(n_kv, tk, hd), normal(n_kv, tk, hd)) for _ in "ab"]
        again = split_step(q, k, v, 6, tails=tails)
        np.testing.assert_array_equal(first[0], again[0])
        assert not np.array_equal(first[1:], again[1:])


# -- the batched arena kernel ----------------------------------------------------


class _Sequence:
    """One decoding sequence and the test's own copy of its whole KV.
    ``kind`` is where that KV lives: ``"fork"`` of a shared base (the only
    kind an arena seats), ``"param"`` — a fork whose next position lies
    *below* the base's last, so the causal mask is not trivial — or
    ``"flat"``, a private cache with no base."""

    def __init__(self, rng, config, base, base_kv, tail_len, kind="fork"):
        shape = (config.n_kv_heads, tail_len, config.head_dim)
        self.base = base if kind != "flat" else None
        self.shared_len = len(base)
        self.cache = base.fork() if kind != "flat" else KVCache.empty(config, capacity=4)
        # A gap, as PML leaves them — or a param slot under the base's end.
        self.next_position = self.shared_len + 3 if kind != "param" else self.shared_len // 2
        positions = np.arange(self.next_position, self.next_position + tail_len)
        self.next_position += tail_len
        keys, values = (rng.normal(size=shape).astype(np.float32) for _ in "kv")
        if kind == "flat":
            self.cache.layers[0].append(base_kv.keys[0], base_kv.values[0], base_kv.positions)
        if tail_len:
            self.cache.layers[0].append(keys, values, positions)
        self.keys = np.concatenate([base_kv.keys[0], keys], axis=1)
        self.values = np.concatenate([base_kv.values[0], values], axis=1)
        self.positions = np.concatenate([base_kv.positions, positions])

    def grow(self, k, v):
        self.keys = np.concatenate([self.keys, k[:, None]], axis=1)
        self.values = np.concatenate([self.values, v[:, None]], axis=1)
        self.positions = np.append(self.positions, self.next_position)
        self.next_position += 1

    def free(self):
        if self.base is not None:
            self.cache.free()


class TestArenaKernel:
    @given(
        seed=st.integers(0, 2**16),
        group_sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        n_kv=st.integers(1, 2),
        n_rep=st.sampled_from([1, 2, 4]),
        use_alibi=st.booleans(),
        steps=st.integers(2, 5),
        seat=st.booleans(),
        loners=st.lists(st.sampled_from(["flat", "fork", "param"]), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_steps_match_dense_reference(
        self, seed, group_sizes, n_kv, n_rep, use_alibi, steps, seat, loners
    ):
        """Whole decode steps through plan_decode_step +
        decode_step_attention equal single-pass float64 attention over
        each sequence's own [base | tail] KV — for 1-4 bases, groups of
        1-8, ragged tails (a tail seated empty is one token long at its
        first step), MHA and GQA, with and without ALiBi; while members
        retire (one group shrinks to a single member mid-decode), a new
        sequence takes over a freed slot, and the arena grows. With
        ``seat`` off nobody is seated (zero residents); ``loners`` ride
        every step unseated beside whoever is: flat caches, forks, and
        param streams under a non-trivial mask."""
        rng = np.random.default_rng(seed)
        head_dim = 4
        config = kernel_config(n_kv, n_rep, head_dim)
        alibi = AlibiBias(config.n_heads, config.max_position) if use_alibi else None
        arena = TailArena(config, slots=sum(group_sizes))

        bases = []
        for _ in group_sizes:
            shared = int(rng.integers(1, 24))
            kv = ModuleKV(
                keys=[rng.normal(size=(n_kv, shared, head_dim)).astype(np.float32)],
                values=[rng.normal(size=(n_kv, shared, head_dim)).astype(np.float32)],
                positions=np.arange(shared),
            )
            base = SplicedKV.from_module_kvs(config, [kv])
            bases.append((base, kv))

        def admit(g, kind="fork", seated=seat):
            base, kv = bases[g]
            seq = _Sequence(rng, config, base, kv, int(rng.integers(0, 40)), kind)
            if seated:
                assert arena.seat(seq.cache) is seq.cache.tail
            return seq

        live = [admit(g) for g, size in enumerate(group_sizes) for _ in range(size)]
        alone = [admit(0, kind, seated=False) for kind in loners]
        for step_no in range(steps):
            if step_no == 1:
                # Retire the first group down to one member, re-seat one
                # newcomer (it gets the lowest freed slot), keep the rest.
                first = [s for s in live if s.base is bases[0][0]]
                for seq in first[1:]:
                    seq.free()
                    live.remove(seq)
                if len(first) > 1:
                    freed = min(arena._free)
                    newcomer = admit(len(bases) - 1)
                    assert not seat or newcomer.cache.tail.slot == freed
                    live.append(newcomer)
            everyone = live + alone
            order = list(rng.permutation(len(everyone)))  # batch order is arbitrary
            batch = [everyone[i] for i in order]
            groups = {}
            for b, seq in enumerate(batch):
                if seq.base is not None:
                    groups.setdefault(id(seq.base), (seq.shared_len, []))[1].append(b)
            shared_groups = [(members, length) for length, members in groups.values()]
            positions = np.asarray([seq.next_position for seq in batch])
            q = rng.normal(size=(len(batch), config.n_heads, head_dim)).astype(np.float32)
            k = rng.normal(size=(len(batch), n_kv, head_dim)).astype(np.float32)
            v = rng.normal(size=(len(batch), n_kv, head_dim)).astype(np.float32)

            plan = plan_decode_step(
                [seq.cache for seq in batch], positions, shared_groups,
                n_heads=config.n_heads, n_kv_heads=n_kv, alibi=alibi,
            )
            assert plan.resident == (len(live) if seat else 0)
            rows = plan.order
            out = decode_step_attention(plan, 0, q[rows], k[rows], v[rows])

            for row, b in enumerate(rows):
                seq = batch[b]
                seq.grow(k[b], v[b])
                assert len(seq.cache) == seq.keys.shape[1]
                bias = np.where(seq.positions <= positions[b], 0.0, -1e9)
                if alibi is not None:
                    bias = bias + alibi.bias(positions[b : b + 1], seq.positions)
                expected = dense_reference(
                    q[b][:, None], seq.keys, seq.values, n_rep, bias=bias
                )
                np.testing.assert_allclose(
                    out[row], expected.reshape(-1), rtol=1e-4, atol=1e-5
                )
                if seq.cache.tail is None:
                    own, n = seq.cache.layers[0], seq.shared_len
                    tail_k, tail_v, tail_pos = own.keys[:, n:], own.values[:, n:], own.positions[n:]
                    if seq.base is not None:
                        assert len(own.parts) == len(seq.base.parts[0]) + 1  # base in place
                else:
                    tail_k, tail_v, tail_pos = seq.cache.tail.kv(0)
                np.testing.assert_array_equal(tail_k, seq.keys[:, seq.shared_len:])
                np.testing.assert_array_equal(tail_v, seq.values[:, seq.shared_len:])
                np.testing.assert_array_equal(tail_pos, seq.positions[seq.shared_len:])

        for seq in live + alone:
            seq.free()
        assert arena.live_slots == 0
        assert all(base.forks == 0 for base, _ in bases)

    def test_unlisted_resident_is_a_group_of_one(self):
        """Residency, not the caller's grouping, decides the kernel: a
        seated cache nobody listed — or listed under the wrong
        shared_len — still takes the arena path, alone."""
        rng = np.random.default_rng(5)
        config = kernel_config(2, 1, 4)
        arena = TailArena(config, slots=2)
        kv = ModuleKV(
            keys=[rng.normal(size=(2, 6, 4)).astype(np.float32)],
            values=[rng.normal(size=(2, 6, 4)).astype(np.float32)],
            positions=np.arange(6),
        )
        base = SplicedKV.from_module_kvs(config, [kv])
        seqs = [_Sequence(rng, config, base, kv, 2) for _ in range(2)]
        for seq in seqs:
            arena.seat(seq.cache)
        caches = [seq.cache for seq in seqs]
        positions = np.asarray([seq.next_position for seq in seqs])
        for groups in (None, [([0, 1], 5)]):
            plan = plan_decode_step(
                caches, positions, groups, n_heads=2, n_kv_heads=2
            )
            assert [(a, b) for a, b, *_ in plan.groups] == [(0, 1), (1, 2)]
        spare = base.fork()
        assert arena.seat(spare) is None  # both rows taken
        spare.free()

    def test_no_resident_plans_no_arena_phase(self):
        """Nobody seated is a step like any other: every row attends over
        its own cache, whatever the caller listed."""
        config = kernel_config(1, 1, 4)
        cache = KVCache.empty(config)
        plan = plan_decode_step(
            [cache], np.asarray([0]), [([0], 4)], n_heads=1, n_kv_heads=1
        )
        assert plan.resident == 0 and plan.arena is None and plan.groups == []
        assert [row for row, *_ in plan.unseated] == plan.order == [0]


# -- scheduler grouping policy ---------------------------------------------------


class _GroupedStream:
    """Duck-typed decoding stream carrying the grouping key. ``seatable``
    off is a stream the arena cannot take (``ServeStream.seat_tail``
    refusing a non-trivial mask)."""

    def __init__(self, shared_group=None, shared_len=0, cache_tokens=30, seatable=True):
        self.shared_group = shared_group
        self.shared_len = shared_len
        self.cache = StubCache([None] * cache_tokens)
        self.seatable = seatable

    def seat_tail(self, arena):
        if self.seatable:  # the tail: everything past the shared prefix
            self.cache.tail = [None] * (len(self.cache) - self.shared_len)


class _FakeEngine:
    model = SimpleNamespace(config=kernel_config(1, 1, 4))


def plan(streams):
    """What one decode step over ``streams`` plans, and what it accounts."""
    sched = ContinuousScheduler(_FakeEngine())
    outcome = IterationOutcome()
    forward = [SimpleNamespace(stream=s) for s in streams]
    groups = sched._seat_shared_groups(forward)
    sched._account_sharing(forward, groups, outcome)
    return groups, outcome


class TestSharedGroupPlanning:
    def test_groups_by_base_identity(self):
        a, b = object(), object()
        streams = [
            _GroupedStream(a, 20),
            _GroupedStream(b, 24),
            _GroupedStream(a, 20),
            _GroupedStream(b, 24, seatable=False),
            _GroupedStream(b, 24),
        ]
        groups, outcome = plan(streams)
        assert sorted(groups) == [([0, 2], 20), ([1, 3, 4], 24)]
        # Accounted from residency: the member the arena refused streams
        # its whole cache and is nobody's company.
        assert sorted(outcome.shared_group_sizes) == [2, 2]
        assert outcome.shared_kv_tokens == 44
        assert outcome.private_kv_tokens == (30 - 20) * 2 + (30 - 24) * 2 + 30

    def test_seating_needs_company_and_a_wide_batch(self):
        """A stream is seated only when its base is shared in flight and
        the step holds at least ``SEAT_MIN_BATCH`` rows; prefix length is
        no criterion. A group that already holds a seated stream is
        planned regardless — its tail lives in the arena."""
        lone, short, long_ = object(), object(), object()
        streams = [
            _GroupedStream(lone, 40),  # group of one: skipped
            _GroupedStream(short, 3),
            _GroupedStream(short, 3),
            _GroupedStream(long_, 400, cache_tokens=410),
            _GroupedStream(long_, 400, cache_tokens=410),
        ]
        assert SEAT_MIN_GROUP == 2 and len(streams) >= SEAT_MIN_BATCH
        groups, outcome = plan(streams)
        assert groups == [([1, 2], 3), ([3, 4], 400)]
        assert outcome.shared_group_sizes == [2, 2]
        assert streams[0].cache.tail is None

        narrow = [_GroupedStream(short, 3) for _ in range(SEAT_MIN_BATCH - 1)]
        groups, outcome = plan(narrow)  # too few rows (at 2: no company either)
        assert groups == [] and outcome.shared_group_sizes == []
        assert outcome.private_kv_tokens == 30 * len(narrow)  # still counted

        narrow[0].seat_tail(None)  # what a seat in a wider step leaves behind
        groups, outcome = plan(narrow[:1])
        assert groups == [([0], 3)] and outcome.shared_group_sizes == [1]

    def test_streams_without_grouping_keys_plan_nothing(self):
        """Streams forked from no base (raw text with nothing cached, the
        runtime tests' doubles) are never grouped — and are still
        accounted as streaming their own caches."""
        groups, outcome = plan([_GroupedStream(), _GroupedStream()])
        assert groups == []
        assert outcome.shared_group_sizes == []
        assert outcome.private_kv_tokens == 60


# -- serving byte-identity across families ---------------------------------------


SCHEMA = (
    '<schema name="trip">'
    '<module name="plan">plan a trip lasting three days focus on food '
    "the quick brown fox jumps over the lazy dog</module>"
    '<module name="city">paris museums cafes architecture louvre seine'
    "</module>"
    "</schema>"
)
# Four prompts sharing one module selection — their streams fork the
# same pre-spliced base, so they form one shared-attention group — with
# distinct suffixes so the private phases diverge immediately.
GROUP_PROMPTS = [
    '<prompt schema="trip"><plan/><city/> answer the question</prompt>',
    '<prompt schema="trip"><plan/><city/> miami beaches nightlife</prompt>',
    '<prompt schema="trip"><plan/><city/> the capital of atlantis</prompt>',
    '<prompt schema="trip"><plan/><city/> def main(): return</prompt>',
]


def make_pc(model, tok):
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(SCHEMA)
    return pc


def make_request(request_id, prompt, max_new_tokens=10):
    return LiveRequest(
        request_id=request_id,
        prompt=prompt,
        schema="trip",
        max_new_tokens=max_new_tokens,
        submitted_at=0.0,
    )


def drive(pc, waves, max_new_tokens=10):
    """Run prompts through a scheduler to completion, admitting one
    wave per iteration; returns per-request outputs plus the aggregate
    share-factor accounting."""
    sched = ContinuousScheduler(pc, max_inflight=8)
    waves = [list(w) for w in waves]
    results = {}
    stats = SimpleNamespace(sizes=[], shared=0, private=0)
    n = 0
    while waves or sched.active:
        pending = []
        if waves:
            for prompt in waves.pop(0):
                pending.append(make_request(f"r{n}", prompt, max_new_tokens))
                n += 1
        outcome = sched.iterate(pending)
        stats.sizes.extend(outcome.shared_group_sizes)
        stats.shared += outcome.shared_kv_tokens
        stats.private += outcome.private_kv_tokens
        for request, result, error, _at in outcome.finished:
            assert error is None, error
            results[request.request_id] = (tuple(result.output_ids), result.text)
    return results, stats


def whole_request(model, tok, prompts, max_new_tokens=10):
    """What :func:`drive` must return: ``serve`` on a fresh engine, one
    request at a time — packs of one, no arena."""
    oracle = make_pc(model, tok)
    served = (oracle.serve(p, max_new_tokens=max_new_tokens) for p in prompts)
    return {f"r{i}": (tuple(r.output_ids), r.text) for i, r in enumerate(served)}


class TestServingByteIdentity:
    def test_two_phase_outputs_identical_to_single_pass(self, any_model, tok):
        """The acceptance contract, per positional family: decoded
        tokens and text with the shared path engaged are byte-identical
        to whole-request ``serve``, and the groups demonstrably formed."""
        served, stats = drive(make_pc(any_model, tok), [GROUP_PROMPTS])
        assert served == whole_request(any_model, tok, GROUP_PROMPTS)
        assert stats.sizes and max(stats.sizes) == len(GROUP_PROMPTS)
        assert stats.shared > 0
        assert stats.private > 0

    def test_staggered_admission_still_identical(self, any_model, tok):
        """Members joining mid-flight give a lone stream company: it
        decodes unseated first, then moves into the arena with decoded
        tokens already in its tail. Nobody's tokens move."""
        waves = [GROUP_PROMPTS[:1], [], GROUP_PROMPTS[1:]]
        served, stats = drive(make_pc(any_model, tok), waves)
        assert served == whole_request(any_model, tok, GROUP_PROMPTS)
        assert stats.sizes and max(stats.sizes) == len(GROUP_PROMPTS)

    def test_mixed_selections_group_separately(self, llama, tok):
        """Streams forked from different spliced bases never share a
        group, and their outputs still match ``serve``."""
        mixed = [
            '<prompt schema="trip"><plan/> answer the question</prompt>',
            '<prompt schema="trip"><plan/> miami beaches</prompt>',
            '<prompt schema="trip"><city/> the capital of atlantis</prompt>',
            '<prompt schema="trip"><city/> def main(): return</prompt>',
        ]
        served, stats = drive(make_pc(llama, tok), [mixed])
        assert served == whole_request(llama, tok, mixed)
        # Two bases in flight: groups of 2, never one group of 4.
        assert stats.sizes and max(stats.sizes) == 2


# Raw prompts over one preamble long enough for discovery to promote.
SHARED_TEXTS = [
    "the quick brown fox jumps over the lazy dog " * 3 + suffix
    for suffix in (
        "plan a trip lasting three days",
        "miami beaches nightlife surf spots",
        "paris museums cafes architecture",
        "answer the question using the documents",
    )
]


class TestArenaServingEqualsWholeRequest:
    """Greedy tokens through the scheduler's arena step equal the
    whole-request oracle (``serve`` / ``serve_text`` on a fresh engine,
    which never touch the arena) — per positional family, PML and raw
    text together, with more requests than decode slots so rows are
    freed and re-seated while their neighbours keep decoding."""

    MIXED = [
        '<prompt schema="trip"><plan/> answer the question</prompt>',
        '<prompt schema="trip"><city/> the capital of atlantis</prompt>',
        '<prompt schema="trip"><plan/> miami beaches</prompt>',
    ]

    def test_slot_churn_matches_serve_and_serve_text(self, any_model, tok):
        pc = make_pc(any_model, tok)
        pc.attach_discovery(DiscoveryConfig(min_hits=2, min_tokens=8))
        for text in SHARED_TEXTS:  # mine the shared preamble into a module
            pc.serve_text(text, max_new_tokens=1)
        assert pc.discovered_modules()

        # Raw text shares a base only with the same text: each is sent twice.
        pml, text = [("pml", p) for p in GROUP_PROMPTS], [("text", t) for t in SHARED_TEXTS]
        work = [*pml[:2], text[0], text[0], *pml[2:], text[1], text[1]]
        work += [("pml", p) for p in self.MIXED]
        budgets = [3, 9, 5, 12, 7, 4, 10, 6, 11, 8, 5]
        requests = [
            LiveRequest(
                request_id=f"r{i}", prompt=prompt, schema="trip",
                max_new_tokens=budget, submitted_at=0.0, raw=kind == "text",
            )
            for i, ((kind, prompt), budget) in enumerate(zip(work, budgets))
        ]
        sched = ContinuousScheduler(pc, max_inflight=4)
        queue = list(requests)
        outputs, seated, most_live = {}, set(), 0
        while queue or sched.active:
            # Staggered: at most one admission per iteration, slots allowing.
            take = min(1, len(queue), sched.predicted_free_slots())
            outcome = sched.iterate([queue.pop(0) for _ in range(take)])
            for seq in sched._inflight:
                if seq.stream.cache.tail is not None:
                    seated.add(seq.request.request_id)
            if sched._arena is not None:
                most_live = max(most_live, sched._arena.live_slots)
            for request, result, error, _at in outcome.finished:
                assert error is None, error
                outputs[request.request_id] = result.output_ids
        assert len(seated) > sched.max_inflight  # rows were re-seated
        assert seated & {r.request_id for r in requests if r.raw}  # promoted text too
        assert len(seated) < len(requests)  # and some decoded beside them unseated
        assert 2 <= most_live <= sched.max_inflight
        assert sched._arena.live_slots == 0

        oracle = make_pc(any_model, tok)
        for request, (kind, prompt), budget in zip(requests, work, budgets):
            serve = oracle.serve_text if kind == "text" else oracle.serve
            expected = serve(prompt, max_new_tokens=budget).output_ids
            assert outputs[request.request_id] == expected, request.request_id

    def test_tail_kv_reads_the_tail_wherever_it_lives(self, llama, tok):
        """``ServeStream.tail_kv`` is the one accessor for everything
        past the shared prefix: the seat moves the suffix unchanged out of
        the fork's private tail, and from then on each decode step grows
        the arena row by one while the fork holds only its base."""
        pc = make_pc(llama, tok)
        stream = pc.open_stream(GROUP_PROMPTS[0], max_new_tokens=4)
        stream.prefill_step(1 << 20)
        before = [a.copy() for a in stream.tail_kv(0)]
        suffix = len(before[2])
        assert suffix > 0 and len(stream.cache) == stream.shared_len + suffix

        arena = TailArena(llama.config, slots=1)
        assert stream.seat_tail(arena) and stream.seat_tail(arena)  # idempotent
        for was, now in zip(before, stream.tail_kv(0)):
            np.testing.assert_array_equal(was, now)

        token, more = stream.next_token()
        assert more
        llama.forward_decode_batch(
            np.asarray([token]), np.asarray([stream.decode_position]), [stream.cache]
        )
        keys, _values, positions = stream.tail_kv(0)
        assert keys.shape[1] == len(positions) == suffix + 1
        assert positions[-1] == stream.decode_position
        assert len(stream.cache) == stream.shared_len + suffix + 1
        assert len(stream.cache.layers[0]) == stream.shared_len  # the tail moved out
        stream.abort()
        assert arena.live_slots == 0


# -- metrics export --------------------------------------------------------------


class TestShareMetrics:
    @staticmethod
    def serve(pc, prompts):
        """``(snapshot, exposition)`` after a live server ran ``prompts``."""
        async def main():
            async with LiveServer(pc, ServeOptions(queue_delay_budget_s=None)) as server:
                requests = [await server.submit(p, max_new_tokens=12) for p in prompts]
                await asyncio.gather(*(r.wait() for r in requests))
                return server.snapshot(), server.prometheus()

        return run(main())

    def test_share_factor_metrics_exported(self, llama, tok):
        """decode_shared_group_size and the *_kv_tokens_total counters
        reach the snapshot and the Prometheus exposition when groups
        form."""
        snap, prom = self.serve(make_pc(llama, tok), GROUP_PROMPTS)
        group_size = snap["histograms"]["decode_shared_group_size"]
        assert group_size["count"] > 0
        assert snap["counters"]["decode_shared_kv_tokens_total"] > 0
        assert snap["counters"]["decode_private_kv_tokens_total"] > 0
        for name in (
            "decode_shared_group_size",
            "decode_shared_kv_tokens_total",
            "decode_private_kv_tokens_total",
        ):
            assert name in prom

    def test_groupless_steps_count_their_private_tokens(self, llama, tok):
        """A step nobody is seated in streams every cache whole, and says
        so: the private counter counts it (it used to see only steps that
        had a group, which overstated the shared fraction); the shared
        series stay absent."""
        pc = make_pc(llama, tok)
        loners = TestArenaServingEqualsWholeRequest.MIXED[:2]  # two bases: no company
        snap, _ = self.serve(pc, loners)
        prompt_tokens = sum(pc.prompt_token_count(p)[0] for p in loners)
        # Each stream's step reads its prompt and every token decoded so far.
        assert snap["counters"]["decode_private_kv_tokens_total"] > prompt_tokens
        assert "decode_shared_group_size" not in snap["histograms"]
        assert "decode_shared_kv_tokens_total" not in snap["counters"]

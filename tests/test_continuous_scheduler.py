"""Continuous iteration-level batching: the per-token scheduler stack.

Bottom-up coverage of the pieces the scheduler composes — the batched
single-token forward (bit-identical to sequential decode), resumable
serve streams with chunked prefill, the FIFO admission queue — and then
the end-to-end contracts: one identity matrix — ``serve`` ==
``serve_batch`` == scheduler-driven streams at several prefill-chunk
sizes == the live server (== ``baseline()`` where the paper's
equivalence is exact), and the same for raw text against ``generate``
with discovery on and off — across all four positional families; no
starvation under adversarial arrival order; and balanced fork
accounting under the page auditor.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import install_sanitizers, uninstall_sanitizers
from repro.cache.engine import PromptCache
from repro.llm import generate
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler, LiveServer, ServeOptions
from repro.reuse import DiscoveryConfig
from repro.server.batcher import RAW_BUCKET, CacheAwareBatcher
from repro.server.request import DONE, FAILED, LiveRequest
from repro.server.runtime import SERVICE_TIME_ALPHA
from repro.server.scheduler import IterationOutcome
from tests.stubs import StubEngine


def run(coro):
    return asyncio.run(coro)


def make_request(request_id, *, schema="a", submitted_at=0.0, raw=False,
                 max_new_tokens=4, prompt="p"):
    return LiveRequest(
        request_id=request_id,
        prompt=prompt,
        schema=schema,
        max_new_tokens=max_new_tokens,
        submitted_at=submitted_at,
        raw=raw,
    )


SCHEMA = (
    '<schema name="trip">'
    '<module name="plan">plan a trip lasting three days focus on food '
    "the quick brown fox jumps over the lazy dog</module>"
    '<module name="city">paris museums cafes architecture louvre seine'
    "</module>"
    "</schema>"
)
PROMPTS = [
    '<prompt schema="trip"><plan/> answer the question</prompt>',
    '<prompt schema="trip"><plan/><city/> answer the question using the '
    "documents above</prompt>",
    '<prompt schema="trip"><city/> miami beaches nightlife</prompt>',
    '<prompt schema="trip"><plan/> the capital of atlantis</prompt>',
]


# One module at the prefix, the text right behind it: the case where
# Prompt Cache and the KV-cache baseline are the same computation.
EXACT_PROMPT = '<prompt schema="trip"><plan/> miami beaches</prompt>'

SHARED_TEXT = "the quick brown fox jumps over the lazy dog " * 3
TEXTS = [
    SHARED_TEXT + "plan a trip lasting three days",
    SHARED_TEXT + "paris museums cafes architecture",
    "miami beaches nightlife surf spots",  # shares nothing
    SHARED_TEXT.strip(),  # fully covered once the shared run is promoted
]


def make_pc(model, tok):
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(SCHEMA)
    return pc


def scheduled(pc, prompts, *, chunk, raw=False, max_new_tokens=6, first_logits=None):
    """Results of streams driven to completion by a scheduler that admits
    all of ``prompts`` at once — into one iteration, so their last chunks
    share packed prefills — and prefills ``chunk`` tokens an iteration.
    ``raw`` and ``max_new_tokens`` are one value for all or one per prompt.
    A ``first_logits`` dict receives each stream's first-token logits by
    prompt index."""
    sched = ContinuousScheduler(
        pc, max_inflight=len(prompts), prefill_chunk_tokens=chunk
    )
    if first_logits is not None:
        sched._open = partial(recording_open, sched._open, first_logits)
    flags = raw if isinstance(raw, list) else [raw] * len(prompts)
    budgets = max_new_tokens if isinstance(max_new_tokens, list) else [max_new_tokens] * len(prompts)
    admissions = [
        make_request(str(i), prompt=p, raw=flag, max_new_tokens=budget)
        for i, (p, flag, budget) in enumerate(zip(prompts, flags, budgets))
    ]
    results = {}
    while admissions or sched.active:
        outcome = sched.iterate(admissions)
        admissions = []
        for request, result, error, _ in outcome.finished:
            assert error is None, error
            results[int(request.request_id)] = result
    return [results[i] for i in range(len(prompts))]


def ids(results):
    return [r.output_ids for r in results]


def recording_open(open_stream, first_logits, request):
    """A scheduler's ``_open`` that keeps a copy of each stream's
    first-token logits in ``first_logits``, by request id as an int."""
    stream = open_stream(request)
    done = stream.prefill_done

    def prefill_done(rows, logits, seconds):
        done(rows, logits, seconds)
        if stream.logits is not None:
            first_logits.setdefault(int(request.request_id), stream.logits.copy())

    stream.prefill_done = prefill_done
    return stream


def served(pc, prompt, max_new_tokens=6, raw=False):
    """``serve``'s own path by hand — one prefill chunk, then the
    per-sequence decode loop: ``(result, first-token logits)``."""
    open_stream = pc.open_text_stream if raw else pc.open_stream
    stream = open_stream(prompt, max_new_tokens=max_new_tokens)
    stream.prefill_step(stream.prefill_remaining)
    first = stream.logits.copy()
    stream.run()
    return stream.finish(), first


def assert_same_first_logits(first_logits, expected):
    """Float32 tolerance, per prompt index."""
    assert sorted(first_logits) == list(range(len(expected)))
    for i, want in enumerate(expected):
        np.testing.assert_allclose(first_logits[i], want, rtol=1e-4, atol=1e-4)


# -- batched decode forward ------------------------------------------------------


class TestForwardDecodeBatch:
    """Raw text with nothing cached: every stream decodes on a private
    flat cache, so each step is the batched forward with no row seated."""

    def test_text_streams_match_generate(self, any_model, tok):
        """The tentpole's correctness bedrock, per positional family:
        one batched forward per step produces exactly the tokens the
        per-sequence loop produces."""
        texts = [
            "the quick brown fox",
            "paris museums cafes architecture",
            "plan a trip lasting three days",
        ]
        sequential = [
            generate(any_model, tok.encode(t), max_new_tokens=8) for t in texts
        ]
        batched = scheduled(
            PromptCache(any_model, tok), texts, chunk=256, raw=True, max_new_tokens=8
        )
        assert ids(batched) == ids(sequential)

    def test_mixed_lengths_retire_independently(self, llama, tok):
        """A retirement mid-batch must not perturb survivors: a long
        sequence decodes alongside one whose budget ends early, and
        both match their solo runs."""
        texts, budgets = ["the quick brown fox jumps", "miami beaches nightlife"], [10, 3]
        together = scheduled(
            PromptCache(llama, tok), texts, chunk=256, raw=True, max_new_tokens=budgets
        )
        assert ids(together) == [
            generate(llama, tok.encode(t), max_new_tokens=n).output_ids
            for t, n in zip(texts, budgets)
        ]

    def test_batch_of_one_matches_forward(self, llama, tok):
        text = "answer the question"
        assert ids(
            scheduled(PromptCache(llama, tok), [text], chunk=256, raw=True)
        ) == [generate(llama, tok.encode(text), max_new_tokens=6).output_ids]


# -- decode_loop step accounting -------------------------------------------------


class TestDecodeTiming:
    def test_sampling_time_lands_in_step_times(self, llama, tok):
        """Satellite: per-step sampling cost is folded into
        ``step_times_s`` — a deliberately slow sampler must show up in
        TTST, not vanish between the timers."""
        prompt = tok.encode("the quick brown fox")
        delay = 0.005

        class SlowGreedy:
            def __call__(self, logits):
                time.sleep(delay)
                return int(np.argmax(logits))

        fast = generate(llama, prompt, max_new_tokens=5)
        slow = generate(llama, prompt, max_new_tokens=5, sampler=SlowGreedy())
        assert slow.output_ids == fast.output_ids
        # 4 recorded steps (final token's sampling has no forward after
        # it and stays uncharged); each must carry >= one sampling delay.
        assert len(slow.step_times_s) == 4
        assert all(s >= delay for s in slow.step_times_s)


# -- resumable serve streams -----------------------------------------------------


class TestServeStream:
    def test_chunked_prefill_matches_serve(self, llama, tok):
        """Driving a stream by hand with a tiny prefill budget, one chunk
        at a time, ends in the same greedy tokens the one-call path makes."""
        pc = make_pc(llama, tok)
        direct = pc.serve(PROMPTS[1], max_new_tokens=6)

        stream = pc.open_stream(PROMPTS[1], max_new_tokens=6)
        chunks = 0
        while stream.prefill_remaining:
            assert stream.prefill_step(2) > 0
            chunks += 1
        assert chunks >= 2  # the budget actually chunked the suffix
        while stream.decoding:
            token, needs_forward = stream.next_token()
            if not needs_forward:
                break
            logits = pc.model.forward_decode_batch(
                np.asarray([token]),
                np.asarray([stream.decode_position]),
                [stream.cache],
            )
            stream.set_logits(logits[0])
        result = stream.finish()
        assert result.output_ids == direct.output_ids
        assert result.cached_tokens == direct.cached_tokens
        assert result.prompt_tokens == direct.prompt_tokens

    def test_zero_budget_retires_at_prefill_end(self, llama, tok):
        pc = make_pc(llama, tok)
        stream = pc.open_stream(PROMPTS[0], max_new_tokens=0)
        while stream.prefill_remaining:
            stream.prefill_step(64)
        assert stream.done and not stream.decoding
        assert stream.finish().output_ids == []

    def test_abort_is_idempotent_and_releases_fork(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPTS[0], max_new_tokens=1)  # build the shared base
        live_before = [base.forks for base in _spliced_bases(pc)]
        stream = pc.open_stream(PROMPTS[0], max_new_tokens=4)
        stream.abort()
        stream.abort()
        assert [base.forks for base in _spliced_bases(pc)] == live_before

    def test_text_stream_matches_serve_text(self, models, tok):
        """The raw-text identity matrix, per positional family:
        ``serve_text`` == scheduler-driven text streams == ``generate``,
        with discovery off and on (two passes: the first mines the shared
        run, the second splices it)."""
        for model in models.values():
            expected = [
                generate(model, tok.encode(t), max_new_tokens=6).output_ids
                for t in TEXTS
            ]
            off = PromptCache(model, tok)
            on = PromptCache(model, tok)
            on.attach_discovery(DiscoveryConfig(min_hits=2, min_tokens=8))
            for pc in (off, on, on):
                solo = [pc.serve_text(t, max_new_tokens=6) for t in TEXTS]
                assert ids(solo) == expected
                for chunk in (1, 7, 256):
                    assert ids(scheduled(pc, TEXTS, chunk=chunk, raw=True)) == expected
            # Raw and PML requests admitted together: packs that mix flat
            # caches, forks of discovered chains and forks of schema bases.
            on.register_schema(SCHEMA)
            pml = [on.serve(p, max_new_tokens=6).output_ids for p in PROMPTS]
            mixed = [*TEXTS, *PROMPTS, *TEXTS[:2]]
            raw = [True] * len(TEXTS) + [False] * len(PROMPTS) + [True] * 2
            for chunk in (1, 7, 256):
                assert ids(scheduled(on, mixed, chunk=chunk, raw=raw)) == [
                    *expected, *pml, *expected[:2]
                ]
            assert off.serve_text(TEXTS[0]).cached_tokens == 0
            assert on.discovery.stats.promotions >= 1
            assert solo[0].cached_tokens > 0 and solo[3].cached_tokens > 0


def _spliced_bases(pc):
    """Every shared spliced base the engine holds."""
    return [base.kv for base in pc._bases.values()]


# -- admission queue satellites --------------------------------------------------


class TestBatcherAdmission:
    def test_raw_groups_collapse_into_one_bucket(self):
        """Satellite: nothing about a raw request leaks as a metric
        label — every one reports under ``<raw>``."""
        b = CacheAwareBatcher()
        b.put(make_request("r1", schema="__raw__", raw=True, prompt="one text"))
        b.put(make_request("r2", schema="__raw__", raw=True, prompt="another"))
        b.put(make_request("s1", schema="trip"))
        assert b.pending_by_schema() == {RAW_BUCKET: 2, "trip": 1}

    def test_pop_oldest_is_strict_fifo_across_groups(self):
        b = CacheAwareBatcher()
        arrivals = [
            make_request("a", schema="x", submitted_at=1.0),
            make_request("b", schema="y", submitted_at=2.0),
            make_request("c", schema="x", submitted_at=3.0),
            make_request("d", schema="z", submitted_at=4.0),
        ]
        # Schemas interleave adversarially, but put order is arrival
        # order (the runtime enqueues at submit time) — pop order must
        # ignore grouping entirely and follow arrival.
        for r in arrivals:
            b.put(r)
        popped = [b.pop_oldest().request_id for _ in range(4)]
        assert popped == ["a", "b", "c", "d"]
        assert b.pop_oldest() is None


# -- scheduler unit behaviour (duck-typed streams) -------------------------------


class TestSchedulerSlots:
    def test_predicted_free_slots_is_exact(self):
        """Free slots are ``max_inflight`` minus what is in flight: the
        iteration that samples a stream's last token retires it, so the
        slot is free for the next iteration's admission."""
        sched = ContinuousScheduler(StubEngine(), max_inflight=2)
        first = sched.iterate([make_request("a", max_new_tokens=3),
                               make_request("b", max_new_tokens=5)])
        # Both prefilled and sampled token 1, forwarded it, sampled token 2.
        assert first.tokens == 4 and sched.active == 2
        assert sched.predicted_free_slots() == 0
        second = sched.iterate([])  # a samples token 3 of 3 and retires
        assert [r.request_id for r, *_ in second.finished] == ["a"]
        assert sched.active == 1 and sched.predicted_free_slots() == 1
        third = sched.iterate([make_request("c", max_new_tokens=5)])
        assert third.admitted == 1 and third.finished == []
        assert sched.active == 2 and sched.predicted_free_slots() == 0

    def test_overfull_admission_list_raises(self):
        engine = StubEngine()
        sched = ContinuousScheduler(engine, max_inflight=1)
        with pytest.raises(ValueError, match="2 admissions for 1 free slots"):
            sched.iterate([make_request("a"), make_request("b")])
        assert sched.active == 0 and engine.streams == []  # nothing opened

    @pytest.mark.parametrize("budget", [3, 10], ids=["budget", "stop_token"])
    def test_last_token_frees_its_slot_before_iterate_returns(self, budget):
        """Three tokens, ended by the budget or — with budget left — by
        a stop token: the ``iterate`` call that samples the third
        returns with the slot free and the completion already handed
        off as a part, nothing of it left on the returned outcome."""

        class Stopping(StubEngine):
            def _open(self, kind, prompt, max_new_tokens):
                stream = super()._open(kind, prompt, max_new_tokens)
                stream.max_new_tokens = max_new_tokens
                return stream

        sched = ContinuousScheduler(
            Stopping(tokens=lambda serial, budget: [7, 8, 9]), max_inflight=1
        )
        parts = []
        first = sched.iterate([make_request("a", max_new_tokens=budget)], parts.append)
        # The prefill samples token 1 and the decode step token 2.
        assert first.tokens == 2 and sched.active == 1
        assert [t for part in parts for _, t, _ in part.emitted] == [7, 8]
        parts.clear()
        last = sched.iterate([], parts.append)
        assert last.tokens == 1 and last.completed == 1
        assert sched.active == 0 and sched.predicted_free_slots() == 1
        assert last.emitted == [] and last.finished == []
        (part,) = parts
        assert [t for _, t, _ in part.emitted] == [9]
        ((request, result, error, _),) = part.finished
        assert request.request_id == "a" and error is None
        assert result.output_ids == [7, 8, 9]

    def test_open_failure_fails_only_that_request(self):
        class Flaky(StubEngine):
            def open_stream(self, prompt, max_new_tokens=32):
                if prompt == "bad":
                    raise ValueError("boom")
                return super().open_stream(prompt, max_new_tokens=max_new_tokens)

        sched = ContinuousScheduler(Flaky(), max_inflight=4)
        outcome = sched.iterate([
            make_request("good", prompt="ok"),
            make_request("bad", prompt="bad"),
        ])
        assert outcome.admitted == 1
        (req, result, error, _), = outcome.finished
        assert req.request_id == "bad" and result is None
        assert isinstance(error, ValueError)
        assert sched.active == 1


# -- end-to-end: LiveServer over the real engine ---------------------------------


class TestContinuousServer:
    def options(self, **kw):
        kw.setdefault("queue_delay_budget_s", None)
        return ServeOptions(**kw)

    def test_outputs_byte_identical_to_serve_batch(self, any_model, tok):
        """The PML identity matrix, per positional family: every way of
        running a prompt — ``serve``, ``serve_batch``, streams under the
        scheduler at prefill chunks of 1 / 7 / everything, the live
        server — makes the same greedy tokens and the same cached /
        uncached split, and the scheduler's first-token logits are
        ``serve``'s to float32 tolerance."""
        pc = make_pc(any_model, tok)
        prompts = [*PROMPTS, EXACT_PROMPT]
        solo, solo_first = zip(*(served(pc, p) for p in prompts))
        assert ids(solo) == [pc.serve(p, max_new_tokens=6).output_ids for p in prompts]

        async def main():
            async with LiveServer(pc, self.options()) as server:
                requests = [
                    await server.submit(p, max_new_tokens=6) for p in prompts
                ]
                return [await r.wait() for r in requests]

        runs = [pc.serve_batch(prompts, max_new_tokens=6).results, run(main())]
        for chunk in (1, 7, 256):
            first_logits = {}
            runs.append(scheduled(pc, prompts, chunk=chunk, first_logits=first_logits))
            assert_same_first_logits(first_logits, solo_first)
        # Several PML requests — two of them twice, so forks of one base
        # meet in one pack — and raw ones admitted into one iteration.
        texts = [pc.serve_text(t, max_new_tokens=6) for t in TEXTS[:3]]
        mixed = [*prompts, *TEXTS[:3], *prompts[:2]]
        raw = [False] * len(prompts) + [True] * 3 + [False] * 2
        for chunk in (1, 7, 256):
            results = scheduled(pc, mixed, chunk=chunk, raw=raw)
            assert ids(results[len(prompts):]) == ids([*texts, *solo[:2]])
            runs.append(results[:len(prompts)])
        for results in runs:
            assert ids(results) == ids(solo)
            for a, b in zip(results, solo):
                assert (a.cached_tokens, a.prompt_tokens) == (
                    b.cached_tokens, b.prompt_tokens
                )
        assert solo[-1].output_ids == (
            pc.baseline(EXACT_PROMPT, max_new_tokens=6).output_ids
        )

    def test_no_starvation_under_adversarial_arrival(self, llama, tok):
        """A long decode admitted first must not delay later short
        requests to its own completion: with iteration-level batching
        the shorts retire while the long request is still decoding."""
        pc = make_pc(llama, tok)

        async def main():
            async with LiveServer(
                pc, self.options(max_inflight=3)
            ) as server:
                long_req = await server.submit(PROMPTS[0], max_new_tokens=48)
                shorts = [
                    await server.submit(p, max_new_tokens=2)
                    for p in PROMPTS[1:]
                ]
                await asyncio.gather(
                    long_req.wait(), *(r.wait() for r in shorts)
                )
                return long_req, shorts

        long_req, shorts = run(main())
        assert long_req.state == DONE and len(long_req.result.output_ids) == 48
        for short in shorts:
            assert short.state == DONE
            # Strictly earlier completion: the long request never held
            # the engine to itself.
            assert short.finished_at < long_req.finished_at

    def test_paged_leases_balance_across_serving(self, llama, tok):
        """Every fork the scheduler takes is released by retirement —
        audited fork balance across a concurrent serving burst."""
        already = sanitize.active_auditor()
        auditor = install_sanitizers()
        errors = auditor.errors_raised  # the session's, under REPRO_SANITIZE=1
        try:
            pc = make_pc(llama, tok)
            pc.serve_batch(PROMPTS, max_new_tokens=2)  # build shared bases
            bases = _spliced_bases(pc)
            assert bases

            async def main():
                async with LiveServer(pc, self.options()) as server:
                    requests = [
                        await server.submit(p, max_new_tokens=4)
                        for p in PROMPTS * 2
                    ]
                    await asyncio.gather(*(r.wait() for r in requests))

            with auditor.expect_balanced(*bases):
                run(main())
            assert auditor.errors_raised == errors
        finally:
            if already is None:
                uninstall_sanitizers()

    def test_raw_text_path_matches_serve_text(self, llama, tok):
        pc = make_pc(llama, tok)
        texts = [
            "the quick brown fox jumps over the lazy dog",
            "paris museums cafes architecture louvre seine",
        ]
        direct = [pc.serve_text(t, max_new_tokens=4) for t in texts]

        async def main():
            async with LiveServer(pc, self.options()) as server:
                requests = [
                    await server.submit_text(t, max_new_tokens=4)
                    for t in texts
                ]
                return [await r.wait() for r in requests]

        live = run(main())
        for a, b in zip(live, direct):
            assert a.output_ids == b.output_ids

    def test_iteration_metrics_exported(self, llama, tok):
        """Satellite: occupancy histogram, decode-rate gauge, stall
        counter, and inter-token latency quantiles all reach the
        Prometheus exposition."""
        pc = make_pc(llama, tok)

        async def main():
            async with LiveServer(
                pc, self.options(max_inflight=2)
            ) as server:
                requests = [
                    await server.submit(p, max_new_tokens=4) for p in PROMPTS
                ]
                await asyncio.gather(*(r.wait() for r in requests))
                return server, server.snapshot(), server.prometheus()

        server, snap, prom = run(main())
        assert snap["histograms"]["server_iteration_occupancy"]["count"] > 0
        assert snap["histograms"]["server_iteration_occupancy"]["p99"] <= 2
        assert snap["histograms"]["server_inter_token_seconds"]["count"] > 0
        assert "p95" in snap["histograms"]["server_inter_token_seconds"]
        assert snap["gauges"]["server_decode_tokens_per_second"] > 0
        # Four requests went through packed prefills of at most two.
        packs = snap["histograms"]["server_prefill_pack_size"]
        assert 2 <= packs["count"] <= 4 and packs["p99"] <= 2
        # max_inflight=2 with 4 queued requests forces admission stalls.
        assert snap["counters"]["server_admission_stalls_total"] >= 1
        for name in (
            "server_iteration_occupancy",
            "server_prefill_pack_size",
            "server_inter_token_seconds",
            "server_decode_tokens_per_second",
            "server_admission_stalls_total",
        ):
            assert name in prom

    def test_per_iteration_series_read_the_whole_iteration(self):
        """A part feeds no per-iteration series; the returned outcome
        feeds them from its counters — the tokens that already left as
        parts included — not from the events it still carries."""
        server = LiveServer(StubEngine(), self.options())
        request = make_request("r")
        server._apply_outcome(
            IterationOutcome(emitted=[(request, 7, 1.0)], partial=True)
        )
        assert request.first_token_at == 1.0
        snap = server.snapshot()
        assert "server_decode_tokens_per_second" not in snap["gauges"]
        assert "server_queue_depth" not in snap["gauges"]
        server._apply_outcome(IterationOutcome(
            tokens=4, elapsed_s=2.0, prefill_batch=3, decode_batch=4
        ))
        snap = server.snapshot()
        assert snap["gauges"]["server_decode_tokens_per_second"] == SERVICE_TIME_ALPHA * (
            4 / 2.0
        )
        assert snap["histograms"]["server_prefill_pack_size"]["count"] == 1
        assert snap["histograms"]["server_iteration_occupancy"]["count"] == 1

    def test_streamed_tokens_arrive_incrementally(self, llama, tok):
        pc = make_pc(llama, tok)

        async def main():
            async with LiveServer(pc, self.options()) as server:
                request = await server.submit(PROMPTS[0], max_new_tokens=5)
                seen = [token async for token in request.stream()]
                result = await request.wait()
                return seen, result

        seen, result = run(main())
        assert seen == result.output_ids
        assert result.output_ids == pc.serve(PROMPTS[0], max_new_tokens=5).output_ids

    def test_shutdown_aborts_inflight_without_leaks(self, llama, tok):
        pc = make_pc(llama, tok)
        pc.serve(PROMPTS[0], max_new_tokens=1)
        bases = _spliced_bases(pc)
        live_before = [base.forks for base in bases]

        async def main():
            server = LiveServer(pc, self.options())
            await server.start()
            request = await server.submit(PROMPTS[0], max_new_tokens=2000)
            # Give the scheduler a moment to admit it, then slam the door.
            for _ in range(200):
                await asyncio.sleep(0.005)
                if server.inflight:
                    break
            await server.stop(drain=False)
            return request

        request = run(main())
        assert request.state == FAILED
        assert [base.forks for base in bases] == live_before

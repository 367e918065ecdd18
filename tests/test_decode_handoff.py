"""The iteration's two hand-offs: outcomes to the event loop, and private
tails to the arena.

- **Delivery.** The engine thread hands tokens and completions to the
  loop before it starts work that cannot change them — inside an
  iteration as *parts* (after a prefill's first tokens, after the
  decode step's samples), and between the iterations of a burst as
  whole outcomes — and keeps going. A stub engine whose forwards wait on
  gates makes the interleaving exact: a first token is in the client's
  hands while the engine sits in the same iteration's decode step; a
  request retired at the end of a decode step is ``DONE`` before the
  next iteration's prefill begins; a closed-loop caller's next request
  is admitted by the iteration right after its completion; every token
  reaches its stream exactly once and in order whether the server
  drains, is stopped mid-iteration or mid-burst, or expires a queued
  request meanwhile; a closed loop ends the burst without failing
  anyone.
- **One engine thread.** Under asyncio's default executor (a pool),
  every iteration and every store upkeep tick runs on the server's own
  thread, a tick due mid-step included.
- **Slot lifecycle.** Under the fork and seat auditor, hundreds of
  admissions through the real engine with retirements, injected failures
  and ``abort_all`` leave every arena row free and every base's forks
  balanced.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    assert_quiescent,
    install_sanitizers,
    uninstall_sanitizers,
)
from repro.cache.engine import PromptCache
from repro.llm.paged import TailArena
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import (
    ContinuousScheduler,
    DeadlineExceeded,
    LiveServer,
    ServeOptions,
    ServerClosed,
)
from repro.server.request import DONE, EXPIRED, FAILED, LiveRequest
from repro.server.scheduler import IterationOutcome
from tests.stubs import StubEngine

WAIT_S = 10.0  # generous bound on every cross-thread wait below


def run(coro):
    return asyncio.run(coro)


def prompt(i=0, schema="a"):
    return f'<prompt schema="{schema}"><context/> q{i}</prompt>'


class FakeClock:
    """Advanced by the stub engine only: one tick per forward."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class GatedEngine(StubEngine):
    """Stream number ``serial`` emits ``100 * serial + step``: a
    duplicated, dropped or reordered token changes the sequence a client
    sees. Each batched forward ticks the fake clock and, when gated,
    waits for a permit — so a test decides exactly how far the engine
    thread has got."""

    def __init__(
        self, clock: FakeClock, gated: bool = False, gated_prefill: bool = False
    ) -> None:
        super().__init__(
            schemas=("a",),
            tokens=lambda serial, budget: [100 * serial + i for i in range(budget)],
        )
        self.clock = clock
        self.forwards = 0
        self.entered = threading.Semaphore(0)  # one release per forward begun
        self.permits = threading.Semaphore(0) if gated else None
        # The packed prefill has its own gate and does not tick the clock.
        self.prefills = 0
        self.prefill_entered = threading.Semaphore(0)
        self.prefill_permits = threading.Semaphore(0) if gated_prefill else None

    def forward(self, tokens, positions, segments, logits=True):
        self.prefills += 1
        self.prefill_entered.release()
        if self.prefill_permits is not None:
            assert self.prefill_permits.acquire(timeout=WAIT_S), "prefill gate never opened"
        return super().forward(tokens, positions, segments, logits=logits)

    def forward_decode_batch(self, tokens, positions, caches, shared_groups):
        self.forwards += 1
        self.clock.now += 1.0
        self.entered.release()
        if self.permits is not None:
            assert self.permits.acquire(timeout=WAIT_S), "test never released the gate"
        return [object()] * len(caches)

    def allow(self, forwards: int = 1) -> None:
        for _ in range(forwards):
            self.permits.release()

    def open_gate(self) -> None:
        self.permits.release(10_000)

    async def wait_entered(self, forwards: int = 1, prefill: bool = False) -> None:
        """Until the engine thread is inside that many more decode
        forwards (or packed prefills)."""
        loop = asyncio.get_running_loop()
        entered = self.prefill_entered if prefill else self.entered
        for _ in range(forwards):
            assert await loop.run_in_executor(_WAITERS, entered.acquire, True, WAIT_S)


# Waits on the gate run on threads of their own, never the engine thread.
_WAITERS = ThreadPoolExecutor(max_workers=2, thread_name_prefix="test-wait")


def options(**kw):
    kw.setdefault("queue_delay_budget_s", None)
    kw.setdefault("store_sweep_interval_s", None)
    return ServeOptions(**kw)


def expected_tokens(serial: int, count: int) -> list[int]:
    return [100 * serial + step for step in range(count)]


def record_hand_offs(server: LiveServer) -> list[IterationOutcome]:
    """Every part and outcome the loop applies from now on, in order."""
    applied: list[IterationOutcome] = []
    apply = server._apply_outcome

    def recording(outcome):
        applied.append(outcome)
        apply(outcome)

    server._apply_outcome = recording
    return applied


async def collect(request: LiveRequest) -> tuple[list[int], Exception | None]:
    tokens = []
    try:
        async for token in request.stream():
            tokens.append(token)
    except Exception as exc:  # the stream's terminal error, returned for asserts
        return tokens, exc
    return tokens, None


class TestOutcomeHandOff:
    def test_first_token_arrives_while_the_burst_runs(self):
        """One request of 8 tokens runs as one burst of 7 iterations
        (each ends on a decode step's sample; the last retires it). Its
        first token is sampled in iteration 1: the client must have it
        while the engine thread sits in iteration 2's forward — five
        iterations before the burst's last one starts."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock, gated=True)
            server = LiveServer(engine, options(), clock=clock)
            await server.start()
            request = await server.submit(prompt(), max_new_tokens=8)
            stream = request.stream()
            await engine.wait_entered()  # iteration 1's forward
            engine.allow()
            await engine.wait_entered()  # iteration 2's forward: still gated
            first = await asyncio.wait_for(anext(stream), WAIT_S)
            assert first == 0
            assert engine.forwards == 2  # the burst is five iterations from done
            assert request.first_token_at == 0.0  # stamped before forward 1 ticked
            assert request.state != DONE
            engine.open_gate()
            rest = [token async for token in stream]
            await server.stop()
            assert [first, *rest] == expected_tokens(0, 8)
            assert (await request.wait()).output_ids == expected_tokens(0, 8)
            # 8 tokens: 7 forwards, all in one executor dispatch.
            assert engine.forwards == 7

        run(main())

    def test_first_token_arrives_during_its_own_iterations_decode_step(self):
        """The first token is sampled after the prefill of iteration 1
        and handed over as a part: the client holds it while the engine
        thread is still inside iteration 1's decode forward."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock, gated=True)
            server = LiveServer(engine, options(), clock=clock)
            await server.start()
            request = await server.submit(prompt(), max_new_tokens=8)
            stream = request.stream()
            await engine.wait_entered()  # iteration 1's decode forward: gated
            first = await asyncio.wait_for(anext(stream), WAIT_S)
            assert first == 0
            assert engine.forwards == 1 and engine.prefills == 1
            assert request.first_token_at == 0.0 and request.state != DONE
            engine.open_gate()
            rest = [token async for token in stream]
            await server.stop()
            assert [first, *rest] == expected_tokens(0, 8)

        run(main())

    def test_sample_phase_retirement_is_done_before_the_prefill_starts(self):
        """Iteration 1 retires request A in the sample phase after its
        decode step, and iteration 2 admits B: A is DONE at its client —
        result and all — while the engine thread is held inside B's
        prefill."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock, gated=True, gated_prefill=True)
            server = LiveServer(engine, options(max_inflight=2), clock=clock)
            await server.start()
            a = await server.submit(prompt(0), max_new_tokens=2)
            engine.prefill_permits.release()  # A's prefill goes through
            await engine.wait_entered()  # iteration 1's decode forward
            b = await server.submit(prompt(1), max_new_tokens=3)  # ends the burst
            engine.allow()
            await engine.wait_entered(prefill=True)  # A's prefill...
            await engine.wait_entered(prefill=True)  # ...and B's: held
            result = await asyncio.wait_for(a.wait(), WAIT_S)
            assert a.state == DONE and result.output_ids == expected_tokens(0, 2)
            assert engine.prefills == 2 and engine.forwards == 1
            assert b.first_token_at is None and not b.finished
            engine.prefill_permits.release()
            engine.open_gate()
            tokens, error = await collect(b)
            await server.stop()
            assert error is None and tokens == expected_tokens(1, 3)

        run(main())

    def test_an_iteration_without_prefill_work_hands_off_nothing_extra(self):
        """One request, one burst: iteration 1 hands its first token over
        as a part after the prefill and its second after the decode step;
        iterations 2..7 have nothing to prefill and make one part each,
        their decode step's token (the last with the completion). Every
        returned outcome carries counters only."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock)
            server = LiveServer(engine, options(), clock=clock)
            applied = record_hand_offs(server)
            await server.start()
            request = await server.submit(prompt(), max_new_tokens=8)
            tokens, error = await collect(request)
            await server.stop()
            assert error is None and tokens == expected_tokens(0, 8)
            parts = [o for o in applied if o.partial]
            assert [[t for _, t, _ in o.emitted] for o in parts] == [[t] for t in tokens]
            assert [len(o.finished) for o in parts] == [0] * 7 + [1]
            wholes = [o for o in applied if not o.partial]
            assert len(wholes) == 7  # one per iteration, each with its forward
            assert not any(o.emitted or o.finished for o in wholes)
            assert [o.tokens for o in wholes] == [2, 1, 1, 1, 1, 1, 1]

        run(main())

    def test_every_token_once_and_in_order_across_a_draining_stop(self):
        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock)
            server = LiveServer(engine, options(max_inflight=2), clock=clock)
            applied = record_hand_offs(server)
            await server.start()
            budgets = [5, 17, 1, 9, 12]
            requests = [
                await server.submit(prompt(i), max_new_tokens=n)
                for i, n in enumerate(budgets)
            ]
            readers = [asyncio.create_task(collect(r)) for r in requests]
            await server.stop(drain=True)
            seen = await asyncio.gather(*readers)
            by_serial = {tuple(s.output_ids): s for s in engine.streams}
            for request, (tokens, error) in zip(requests, seen):
                assert error is None and request.state == DONE
                assert tuple(tokens) in by_serial  # one stream's tokens, whole
                assert tokens == request.result.output_ids
                assert len(tokens) == request.max_new_tokens
            assert len(by_serial) == len(budgets)
            # Both kinds of part were on the way: a decode step's
            # retirement, and first tokens ahead of a decode step.
            parts = [o for o in applied if o.partial]
            assert any(
                len(result.output_ids) > 1 for o in parts for _, result, _, _ in o.finished
            )
            assert any(o.emitted and not o.finished for o in parts)
            # Every event was applied exactly once, whatever carried it.
            assert sum(len(o.emitted) for o in applied) == sum(budgets)
            assert sum(len(o.finished) for o in applied) == len(budgets)
            assert sum(o.tokens for o in applied) == sum(budgets)
            assert sum(o.completed for o in applied) == len(budgets)

        run(main())

    def test_stop_without_drain_mid_iteration(self):
        """The door slams while the engine thread is inside the decode
        step of the iteration that admitted the request: the first token
        — a part, handed over before that step — and the second, sampled
        from that step and handed over as the iteration ends, are what
        the client got; the returned outcome applies after them, and
        then ServerClosed."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock, gated=True)
            server = LiveServer(engine, options(), clock=clock)
            applied = record_hand_offs(server)
            await server.start()
            request = await server.submit(prompt(), max_new_tokens=50)
            reader = asyncio.create_task(collect(request))
            await engine.wait_entered()  # inside iteration 1's forward
            stopper = asyncio.create_task(server.stop(drain=False))
            await asyncio.sleep(0)  # stop() has flipped _running
            engine.open_gate()
            await asyncio.wait_for(stopper, WAIT_S)
            tokens, error = await asyncio.wait_for(reader, WAIT_S)
            assert isinstance(error, ServerClosed) and request.state == FAILED
            assert tokens == [0, 1] and engine.forwards == 1
            assert [o.partial for o in applied] == [True, True, False]
            assert engine.streams[0].aborted
            assert request._tokens.empty()  # nothing after the end marker

        run(main())

    def test_stop_without_drain_mid_burst(self):
        """The door slams while the engine thread is inside a burst:
        what was delivered is a clean prefix, the stream ends with
        ServerClosed, the engine stream is aborted, and nothing arrives
        after the terminal event."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock, gated=True)
            server = LiveServer(engine, options(), clock=clock)
            await server.start()
            request = await server.submit(prompt(), max_new_tokens=50)
            reader = asyncio.create_task(collect(request))
            await engine.wait_entered()
            engine.allow(3)
            await engine.wait_entered(3)  # inside forward 4, burst not over
            stopper = asyncio.create_task(server.stop(drain=False))
            await asyncio.sleep(0)  # stop() has flipped _running
            engine.open_gate()
            await asyncio.wait_for(stopper, WAIT_S)
            tokens, error = await asyncio.wait_for(reader, WAIT_S)
            assert isinstance(error, ServerClosed)
            assert request.state == FAILED
            assert tokens == expected_tokens(0, len(tokens))
            # Iterations 1-4 sampled tokens 0-4 (iteration 1 two of
            # them); the burst ended at the first check after _running
            # went false.
            assert len(tokens) == 5 and engine.forwards == 4
            assert engine.streams[0].aborted
            assert request._tokens.empty()  # nothing after the end marker

        run(main())

    def test_late_outcome_for_a_finished_request_is_dropped(self):
        """An outcome applied after its request reached a terminal state
        (a hand-off that lost a race with stop) changes nothing."""

        async def main():
            engine = GatedEngine(FakeClock())
            server = LiveServer(engine, options())
            request = LiveRequest(
                request_id="late", prompt=prompt(), schema="a",
                max_new_tokens=4, submitted_at=0.0,
            )
            request.finish(FAILED, error=ServerClosed("server stopped"))
            outcome = IterationOutcome(
                emitted=[(request, 7, 1.0)],
                finished=[(request, [7], None, 1.0)],
            )
            server._apply_outcome(outcome)
            assert request.state == FAILED and request.result is None
            assert request.first_token_at is None
            tokens, error = await collect(request)
            assert tokens == [] and isinstance(error, ServerClosed)
            assert server.trace_log == []

        run(main())

    def test_deadline_expiry_while_a_burst_delivers(self):
        """max_inflight=1: the second request waits in the queue, the fake
        clock passes its deadline during the first one's decode, and it
        expires typed — while the first request's tokens all arrive, once
        each, in order."""

        async def main():
            clock = FakeClock()
            engine = GatedEngine(clock)
            server = LiveServer(engine, options(max_inflight=1), clock=clock)
            applied = record_hand_offs(server)
            await server.start()
            first = await server.submit(prompt(0), max_new_tokens=30)
            doomed = await server.submit(prompt(1), max_new_tokens=4, deadline_s=5.0)
            readers = [asyncio.create_task(collect(r)) for r in (first, doomed)]
            (tokens, error), (none, expiry) = await asyncio.gather(*readers)
            await server.stop()
            assert error is None and tokens == expected_tokens(0, 30)
            assert applied[0].partial  # the first token left as a part
            assert [t for o in applied for _, t, _ in o.emitted] == tokens
            assert none == [] and isinstance(expiry, DeadlineExceeded)
            assert doomed.state == EXPIRED
            assert len(engine.streams) == 1  # never admitted

        run(main())

    def test_a_closed_loop_callers_next_request_is_admitted_by_the_next_iteration(self):
        """A long request keeps the engine iterating while a closed-loop
        caller sends its next request the moment the last one is done.
        Through the engine thread, as in production, each next request
        is admitted by the iteration right after the one that retired
        its predecessor: zero iterations run in between."""

        async def main():
            engine = GatedEngine(FakeClock())
            server = LiveServer(engine, options(max_inflight=2))
            await server.start()
            scheduler = server._scheduler
            iterate = scheduler.iterate
            admitted, retired = [], []  # per iterate call, request ids

            def logged(admissions, hand_off=None):
                before = {seq.request.request_id for seq in scheduler._inflight}
                outcome = iterate(admissions, hand_off)
                after = {seq.request.request_id for seq in scheduler._inflight}
                admitted.append({r.request_id for r in admissions})
                retired.append(before - after)
                return outcome

            scheduler.iterate = logged
            background = await server.submit(prompt(0), max_new_tokens=40)
            chain = []
            for i in range(1, 6):
                request = await server.submit(prompt(i), max_new_tokens=3)
                chain.append(request.request_id)
                await request.wait()
            await server.stop()
            assert (await background.wait()).output_ids == expected_tokens(0, 40)
            return chain, admitted, retired

        chain, admitted, retired = run(main())
        at = {rid: i for i, ids in enumerate(retired) for rid in ids}
        for previous, following in zip(chain, chain[1:]):
            assert following in admitted[at[previous] + 1], (previous, following)

    def test_hand_off_to_a_closed_loop_ends_the_burst(self):
        """``call_soon_threadsafe`` on a closed loop raises on the engine
        thread; the burst stops there instead of dying with it."""
        engine = GatedEngine(FakeClock())
        server = LiveServer(engine, options())
        scheduler = ContinuousScheduler(engine, max_inflight=2)
        server._running = True
        request = LiveRequest(
            request_id="r", prompt=prompt(), schema="a",
            max_new_tokens=20, submitted_at=0.0,
        )

        attempts = []

        def closed(outcome):
            attempts.append(outcome.partial)
            raise RuntimeError("Event loop is closed")

        last, stalls = server._run_iterations(scheduler, [request], closed)
        assert engine.forwards == 1  # one iteration, then the failed hand-off
        # The part that could not be delivered stayed on the outcome, the
        # iteration ran on without parts, and the burst ended at its end.
        assert attempts == [True, False]
        assert [token for _, token, _ in last.emitted] == [0, 1]
        assert last.finished == [] and last.tokens == 2 and stalls == 0
        assert scheduler.active == 1 and not engine.streams[0].aborted
        assert [r.request_id for r in scheduler.abort_all()] == ["r"]
        assert engine.streams[0].aborted


class TestEngineThread:
    def test_every_iteration_and_upkeep_tick_runs_on_one_thread(self):
        """asyncio's default executor is a pool: it grows a second
        thread for work submitted while its first is busy. The server
        does not use it — every ``iterate`` and every store upkeep tick
        runs on the one engine thread the server owns, including the
        ticks that fall due while a decode step is held, and that
        thread is gone once the server stops."""

        async def main():
            engine = GatedEngine(FakeClock(), gated=True)
            server = LiveServer(engine, options(store_sweep_interval_s=0.005))
            ran = {"iterate": [], "upkeep": []}
            upkeep = engine.store.maintenance

            def maintenance(*args, **kwargs):
                ran["upkeep"].append(threading.get_ident())
                return upkeep(*args, **kwargs)

            engine.store.maintenance = maintenance
            await server.start()
            iterate = server._scheduler.iterate

            def logged(*args):
                ran["iterate"].append(threading.get_ident())
                return iterate(*args)

            server._scheduler.iterate = logged
            request = await server.submit(prompt(), max_new_tokens=4)
            await engine.wait_entered()  # held inside iteration 1's decode step
            await asyncio.sleep(0.05)  # ten upkeep ticks fall due meanwhile
            engine.open_gate()
            await request.wait()
            await asyncio.sleep(0.02)  # and a few more with the engine idle
            await server.stop()
            return ran, {thread.ident for thread in threading.enumerate()}

        ran, alive = run(main())
        threads = set(ran["iterate"]) | set(ran["upkeep"])
        assert len(threads) == 1 and threading.get_ident() not in threads
        # Each iteration ran its own upkeep; the periodic ticks came on top.
        assert len(ran["upkeep"]) > len(ran["iterate"]) > 0
        assert not threads & alive  # shut down with the server


# -- arena slot lifecycle --------------------------------------------------------


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


class TestArenaSlotLifecycle:
    def test_every_slot_returns_under_the_auditor(self, llama, tok):
        """200 admissions through the real engine: streams retire on
        their budgets, a poisoned forward fails whole batches
        (``_fail``), and ``abort_all`` sweeps the rest now and then.
        Afterwards no arena row is seated, no fork of a shared base is
        live, and the auditor saw no double seat or release."""
        already = sanitize.active_auditor()
        auditor = install_sanitizers()
        try:
            pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
            pc.register_schema(SCHEMA)
            for p in PROMPTS:
                pc.serve(p, max_new_tokens=1)  # build the shared bases
            bases = [base.kv for base in pc._bases.values()]
            sched = ContinuousScheduler(pc, max_inflight=8)
            rng = np.random.default_rng(0)
            real_forward = llama.forward_decode_batch
            poisoned = {"next": False}

            def forward(*args, **kwargs):
                if poisoned["next"]:
                    poisoned["next"] = False
                    raise FloatingPointError("poisoned step")
                return real_forward(*args, **kwargs)

            llama.forward_decode_batch = forward
            admitted = failures = seated_peak = 0
            try:
                with auditor.expect_balanced(*bases):
                    while admitted < 200 or sched.active:
                        take = min(
                            sched.predicted_free_slots(), 200 - admitted,
                            int(rng.integers(0, 3)),
                        )
                        batch = [
                            LiveRequest(
                                request_id=f"r{admitted + i}",
                                prompt=PROMPTS[int(rng.integers(len(PROMPTS)))],
                                schema="trip",
                                max_new_tokens=int(rng.integers(1, 7)),
                                submitted_at=0.0,
                            )
                            for i in range(take)
                        ]
                        admitted += take
                        roll = rng.random()
                        if roll < 0.05:
                            poisoned["next"] = True
                        outcome = sched.iterate(batch)
                        failures += sum(1 for *_, err, _ in outcome.finished if err)
                        if sched._arena is not None:
                            seated_peak = max(seated_peak, sched._arena.live_slots)
                        if 0.05 <= roll < 0.08:
                            failures += len(sched.abort_all())
                    assert_quiescent(sched._arena)
            finally:
                del llama.forward_decode_batch
            assert failures > 0 and seated_peak >= 2
            assert sched._arena.live_slots == 0
            assert auditor.errors_raised == 0
        finally:
            if already is None:
                uninstall_sanitizers()

    def test_double_release_of_a_row_is_caught(self, llama, tok):
        already = sanitize.active_auditor()
        auditor = install_sanitizers()
        try:
            pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
            pc.register_schema(SCHEMA)
            stream = pc.open_stream(PROMPTS[0], max_new_tokens=4)
            stream.prefill_step(1 << 20)
            arena = TailArena(llama.config, slots=2)
            assert stream.seat_tail(arena)
            slot = stream.cache.tail.slot
            with pytest.raises(sanitize.SanitizerError):
                assert_quiescent(arena)
            stream.abort()
            assert_quiescent(arena)
            with pytest.raises(sanitize.SanitizerError):
                arena._release(slot)
            assert auditor.errors_raised == 1
        finally:
            if already is None:
                uninstall_sanitizers()

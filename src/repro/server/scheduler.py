"""Iteration-level (continuous) batching over resumable serve streams.

Serving a request start to finish before the next one begins holds the
engine until its last token — short requests wait behind long decodes,
and the model runs its single-token forwards one sequence at a time.
:class:`ContinuousScheduler` builds the serving hot loop around
*iterations* instead (vLLM-style):

1. **Admit.** Queued requests are admitted into the free slots; the
   splice (fork of the shared spliced base, which reads its modules'
   K/V in place) happens here, on the engine thread.
2. **Packed prefill.** Up to ``prefill_chunk_tokens`` uncached prompt
   tokens are taken across prefilling sequences, oldest first — a long
   cold prefill is spread over iterations instead of stalling decode
   progress for everyone else, and only the last taker can be cut
   short. Every chunk that *completes* its prompt rides **one** packed
   forward (``model.forward(ids, positions, [(cache, rows), ...])``:
   one set of GEMMs for all rows, K/V appended and attention run per
   sequence over its own cache), and those sequences sample their first
   token at once (TTFT never waits an extra iteration). The at most one
   chunk that does not complete runs after that, as its own call with no
   logits, whose last layer stops at its K/V append. A stream whose
   positions the model cannot place fails alone, before the pack is
   formed; an exception inside a packed forward fails everyone in it.
   The scheduler never runs a per-sequence prefill — one stream is a
   pack of one.
3. **Batched decode.** Every sequence holding an unforwarded token
   joins **one** ``forward_decode_batch`` call.
4. **Sample and retire.** Each row of that call is sampled as soon as
   it lands. A sequence hitting a stop token or its budget retires on
   the spot: its fork — and so its slot — is free before :meth:`iterate`
   returns, so the request its caller sends in reaction is admitted by
   the very next iteration.

The decode call is one step whatever the sequences are; what differs per
row is where its KV lives. Sequences are grouped by the spliced base
their cache was forked from (``ServeStream.shared_group``): members of
one group decode over the *same* shared KV prefix. A grouped stream is
*seated* at its first decode step — its private tail (prefilled suffix,
then every decoded token) is copied once into one row of the scheduler's
:class:`~repro.llm.paged.TailArena` — and stays seated until it
finishes, aborts or fails, which frees the row with its fork. Seated rows
get ChunkAttention's shared/private partition run batched
(:func:`repro.llm.attention.arena_decode_attention`): one GEMM per base
per layer for everyone sharing it, one stacked GEMM over the arena, one
softmax per row over both; every other row attends over its own cache
inside the same step. Who is seated is one rule, derived each step from
what is in flight: a stream whose base at least ``SEAT_MIN_GROUP``
decoding streams share, in a step at least ``SEAT_MIN_BATCH`` wide. The
rule gates entry only: a group containing a seated stream is planned
every step, even alone.

Tokens and completions leave the engine thread before it starts work
that cannot change them: given a ``hand_off`` callable, :meth:`iterate`
delivers the prefill's first tokens (and any retirement there) ahead of
maintenance and the decode step, and the decode step's tokens and
retirements before it returns, as *parts*; what it returns carries the
remaining events and every counter. Without a callable everything is
returned.

The scheduler is synchronous and single-threaded by design: the runtime
calls :meth:`iterate` from one worker (on the server's one engine
thread, the engine being the serial resource) and applies the parts and
the returned :class:`IterationOutcome` — token events with real
wall-clock timestamps, retired results, errors — back on the event loop,
where the asyncio-side request state lives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.llm.paged import TailArena
from repro.server.request import LiveRequest

# When a stream is seated in the arena: its base is shared (a group of one
# gains no batched GEMM over its base) in a step at least SEAT_MIN_BATCH
# wide. Measured on the small model over 512-token bases, scheduler
# iteration time with every stream seated over the same step with none
# (both are the one batched step; only attention differs), medians of two
# series of 5 and 7 alternating rounds: 1.09-1.12 / 0.90-0.93 / 0.82-0.84 /
# 0.69-0.71 / 0.40-0.55 / 0.28-0.31 at 1 / 2 / 3 / 4 / 8 / 16 streams on
# one base; groups of one 1.09-1.12 / 1.03-1.06 / 1.03-1.05 / 0.97-1.04 at
# 1-4; pairs 0.75-0.84 / 0.66-0.69 / 0.51-0.60 at 4 / 8 / 16. Under this
# rule a lone pair runs at 0.93 and a pair beside a stream on another base
# at 0.97, so the step needs no more width than the company itself. Prefix
# length moves the size of the gain, not its sign, so there is no
# minimum-length rule.
SEAT_MIN_GROUP = 2
SEAT_MIN_BATCH = 2

# The scheduler's two settings, defaulted here once for every layer that
# exposes them (``ServeOptions``, ``repro serve-live``): concurrent
# decoding sequences, and uncached prompt tokens prefilled per iteration.
MAX_INFLIGHT = 8
PREFILL_CHUNK_TOKENS = 256


@dataclass
class _InFlight:
    """One admitted sequence: the request handle plus its engine stream."""

    request: LiveRequest
    stream: object  # repro.cache.engine.ServeStream (duck-typed for tests)
    admitted_at: float


@dataclass
class IterationOutcome:
    """What one iteration did, for the event loop to apply.

    ``emitted`` carries ``(request, token, timestamp)`` in generation
    order; ``finished`` carries ``(request, result, error, timestamp)``
    with exactly one of result/error set. An iteration given a
    ``hand_off`` delivers those two lists in *parts* as it goes
    (``partial=True``, every other field at its default); the returned
    outcome then holds only the events no part carried — and, always,
    the counters, which describe the whole iteration.
    """

    emitted: list[tuple[LiveRequest, int, float]] = field(default_factory=list)
    finished: list[tuple[LiveRequest, object, Exception | None, float]] = (
        field(default_factory=list)
    )
    partial: bool = False
    admitted: int = 0
    tokens: int = 0  # sampled this iteration, wherever they were delivered
    completed: int = 0  # requests retired with a result, likewise
    prefill_tokens: int = 0
    prefill_batch: int = 0  # sequences in this iteration's packed prefill
    decode_batch: int = 0  # sequences in this iteration's batched forward
    active_after: int = 0
    elapsed_s: float = 0.0
    # Share-factor picture for this iteration's decode step, read off
    # who held an arena seat in it: sizes of the seated groups, and KV
    # tokens streamed once per shared base vs per sequence (private
    # tails and whole unseated caches — counted on every step, grouped
    # or not).
    shared_group_sizes: list[int] = field(default_factory=list)
    shared_kv_tokens: int = 0
    private_kv_tokens: int = 0


class ContinuousScheduler:
    """Owns the in-flight sequence set; one :meth:`iterate` per step."""

    def __init__(
        self,
        pc,
        *,
        max_inflight: int = MAX_INFLIGHT,
        prefill_chunk_tokens: int = PREFILL_CHUNK_TOKENS,
        clock=time.monotonic,
        maintenance=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")
        self.pc = pc
        self.max_inflight = max_inflight
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.clock = clock
        # Optional idle-work hook (store TTL sweep + prefetch), run inside
        # iterations with spare prefill capacity (see iterate).
        self.maintenance = maintenance
        self.maintenance_runs = 0
        # Admission order; no lock — iterate()/abort_all() are called
        # serially by the one runtime worker that owns this scheduler.
        self._inflight: list[_InFlight] = []
        # Decode-time home of grouped streams' private tails: one row per
        # decode slot, built at the first seat, gone with the scheduler.
        self._arena: TailArena | None = None

    @property
    def active(self) -> int:
        return len(self._inflight)

    def predicted_free_slots(self) -> int:
        """Slots the next iteration can fill — exactly the free ones: a
        sequence retires in the iteration that samples its last token,
        so nothing in flight is about to free one before admission."""
        return self.max_inflight - len(self._inflight)

    # -- the iteration -----------------------------------------------------------

    def iterate(
        self, admissions: list[LiveRequest], hand_off=None
    ) -> IterationOutcome:
        """One scheduler step (engine-thread side): admit → packed
        prefill → batched decode → sample and retire. ``admissions``
        must fit :meth:`predicted_free_slots`; more is a caller error and
        raises ``ValueError`` before anything runs.

        With a ``hand_off`` callable, tokens and completions leave as
        *parts* (see :class:`IterationOutcome`) before the engine thread
        starts work that cannot change them: the prefill's before
        maintenance and the decode step, the decode step's before the
        call returns. A part is never touched again here. ``hand_off``
        raising ``RuntimeError`` means nobody is listening any more (a
        closed event loop): the events stay on the returned outcome and
        the iteration runs to its end without parts."""
        free = self.predicted_free_slots()
        if len(admissions) > free:
            raise ValueError(f"{len(admissions)} admissions for {free} free slots")
        outcome = IterationOutcome()
        started = self.clock()
        before = len(self._inflight)

        # Admission — the splice/fork work happens here.
        for request in admissions:
            try:
                stream = self._open(request)
            except Exception as exc:  # bad prompt or engine fault: fail just it
                outcome.finished.append((request, None, exc, self.clock()))
                continue
            try:
                self._inflight.append(_InFlight(request, stream, self.clock()))
            except BaseException:
                stream.abort()  # not yet tracked: nothing else will free it
                raise
            outcome.admitted += 1

        # Chunked prefill. Chunks are taken oldest sequence first, so
        # only the last taker can be cut short by the budget. Every chunk
        # that completes its prompt rides one packed forward, and those
        # sequences take their first sampling decision at once; a chunk
        # that does not complete runs after they have left.
        completing, continuing = [], []
        budget = self.prefill_chunk_tokens
        for seq in list(self._inflight):
            if budget <= 0:
                break
            remaining = seq.stream.prefill_remaining
            if remaining == 0:
                continue
            try:
                chunk = seq.stream.prefill_chunk(budget)
            except Exception as exc:  # a prompt the model cannot place
                self._fail(seq, exc, outcome)
                continue
            rows = len(chunk[0])
            budget -= rows
            (completing if rows == remaining else continuing).append((seq, *chunk))
        if completing:
            carried = self._prefill(completing, outcome, logits=True)
            outcome.prefill_batch = len(carried)
            for seq in carried:
                # A zero-token budget is done before any sample.
                if seq.stream.done or self._sample(seq, outcome):
                    self._retire(seq, outcome)
            hand_off = self._hand_off(outcome, hand_off)
        if continuing:
            self._prefill(continuing, outcome, logits=False)

        # Idle-capacity upkeep, after the first tokens and before the
        # decode step: only when the prefill left budget unused (no cold
        # prompt waiting) and nothing has finished yet this iteration — a
        # finished request's caller is about to send its next one, which
        # must not wait behind upkeep.
        if (
            self.maintenance is not None
            and outcome.prefill_tokens < self.prefill_chunk_tokens
            and len(self._inflight) == before + outcome.admitted
        ):
            self.maintenance()
            self.maintenance_runs += 1

        # One batched single-token forward across every sequence whose
        # sampled token still needs its forward; each row is sampled as
        # soon as it lands, and a stream done with it retires here.
        forward = [seq for seq in self._inflight if seq.stream.decoding]
        if forward:
            forward_s = -time.perf_counter()
            try:
                shared_groups = self._seat_shared_groups(forward)
                logits = self.pc.model.forward_decode_batch(
                    np.asarray([seq.stream.output_ids[-1] for seq in forward]),
                    np.asarray([seq.stream.decode_position for seq in forward]),
                    [seq.stream.cache for seq in forward],
                    shared_groups,
                )
            except Exception as exc:
                # A poisoned batched step: there is no per-sequence
                # attribution, so fail every participant.
                for seq in forward:
                    self._fail(seq, exc, outcome)
            else:
                forward_s += time.perf_counter()
                outcome.decode_batch = len(forward)
                self._account_sharing(forward, shared_groups, outcome)
                sample_s = -time.perf_counter()
                retiring = []
                for seq, row in zip(forward, logits):
                    seq.stream.set_logits(row)
                    if self._sample(seq, outcome):
                        retiring.append(seq)
                sample_s += time.perf_counter()
                # Each token's step: the forward that made its logits and
                # the sampling that read them, both in this iteration.
                for seq in forward:
                    seq.stream.charge_step(forward_s + sample_s)
                for seq in retiring:
                    self._retire(seq, outcome)
        self._hand_off(outcome, hand_off)

        outcome.active_after = len(self._inflight)
        outcome.elapsed_s = self.clock() - started
        return outcome

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _hand_off(outcome: IterationOutcome, hand_off):
        """Deliver what ``outcome`` has gathered so far as a part and
        start it on fresh lists. Returns the callable to go on using:
        ``None`` once it has raised ``RuntimeError`` — the receiver is
        gone, the events stay where they are."""
        if hand_off is None or not (outcome.emitted or outcome.finished):
            return hand_off
        part = IterationOutcome(outcome.emitted, outcome.finished, partial=True)
        try:
            hand_off(part)
        except RuntimeError:
            return None
        outcome.emitted, outcome.finished = [], []
        return hand_off

    def _sample(self, seq: _InFlight, outcome: IterationOutcome) -> bool:
        """One sampling decision; True when it ended the stream (a stop
        token or the budget) and the caller must retire it."""
        token, needs_forward = seq.stream.next_token()
        outcome.emitted.append((seq.request, token, self.clock()))
        outcome.tokens += 1
        return not needs_forward

    def _prefill(
        self, takers: list, outcome: IterationOutcome, *, logits: bool
    ) -> tuple[_InFlight, ...]:
        """One packed forward over ``takers`` — ``(sequence, token_ids,
        position_ids)`` per chunk. Returns the sequences it carried; an
        exception inside the forward has no per-sequence attribution, so
        it fails every one of them and returns none."""
        seqs, token_ids, positions = zip(*takers)
        start = time.perf_counter()
        try:
            rows = self.pc.model.forward(
                np.concatenate(token_ids),
                np.concatenate(positions),
                [(seq.stream.cache, len(ids)) for seq, ids in zip(seqs, token_ids)],
                logits=logits,
            )
        except Exception as exc:
            for seq in seqs:
                self._fail(seq, exc, outcome)
            return ()
        seconds = time.perf_counter() - start
        for i, (seq, ids) in enumerate(zip(seqs, token_ids)):
            seq.stream.prefill_done(len(ids), rows[i] if logits else None, seconds)
            outcome.prefill_tokens += len(ids)
        return seqs

    def _seat_shared_groups(
        self, forward: list[_InFlight]
    ) -> list[tuple[list[int], int]]:
        """Group this iteration's decoding sequences by the spliced base
        their caches were forked from, and seat the groups worth seating.
        Two streams holding the same ``shared_group`` object (the
        engine's ``_SplicedBase``) decode over the same ``shared_len``
        base tokens, so their shared-prefix attention can run once. Returns ``(member indices
        into forward, shared_len)`` per planned group — none when nothing
        qualifies; a planned member the arena cannot take (see
        ``ServeStream.seat_tail``) stays on its own cache."""
        buckets: dict[int, tuple[int, list[int]]] = {}
        for i, seq in enumerate(forward):
            base, length = seq.stream.shared_group, seq.stream.shared_len
            if base is not None and length > 0:  # a prompt importing nothing: empty base
                buckets.setdefault(id(base), (length, []))[1].append(i)
        wide = len(forward) >= SEAT_MIN_BATCH
        plan = []
        for length, members in buckets.values():
            # The rule gates *entry*; a group holding a seated stream is
            # always planned — its tail lives in the arena for good.
            seated = [forward[i].stream.cache.tail is not None for i in members]
            if not (wide and len(members) >= SEAT_MIN_GROUP) and not any(seated):
                continue
            plan.append((members, length))
            for i, has_seat in zip(members, seated):
                if not has_seat:
                    if self._arena is None:
                        self._arena = TailArena(self.pc.model.config, self.max_inflight)
                    forward[i].stream.seat_tail(self._arena)
        return plan

    def _account_sharing(
        self, forward: list[_InFlight], shared_groups, outcome: IterationOutcome
    ) -> None:
        """Share-factor observability for the decode step just run, read
        off residency: KV tokens streamed once per shared chunk (a
        planned group's members that hold a seat) vs per sequence
        (arena tails and whole unseated caches, this step's token
        included)."""
        for members, length in shared_groups:
            seated = sum(forward[i].stream.cache.tail is not None for i in members)
            if seated:
                outcome.shared_group_sizes.append(seated)
                outcome.shared_kv_tokens += length
        for seq in forward:
            cache = seq.stream.cache
            outcome.private_kv_tokens += len(cache if cache.tail is None else cache.tail)

    def _open(self, request: LiveRequest):
        if request.raw:
            return self.pc.open_text_stream(
                request.prompt, max_new_tokens=request.max_new_tokens
            )
        return self.pc.open_stream(
            request.prompt, max_new_tokens=request.max_new_tokens
        )

    def _retire(self, seq: _InFlight, outcome: IterationOutcome) -> None:
        self._inflight.remove(seq)
        outcome.finished.append(
            (seq.request, seq.stream.finish(), None, self.clock())
        )
        outcome.completed += 1

    def _fail(self, seq: _InFlight, exc: Exception, outcome: IterationOutcome) -> None:
        self._inflight.remove(seq)
        seq.stream.abort()
        outcome.finished.append((seq.request, None, exc, self.clock()))

    def abort_all(self) -> list[LiveRequest]:
        """Release every in-flight stream (non-drain shutdown); returns
        the abandoned requests so the runtime can fail them."""
        requests = []
        for seq in self._inflight:
            seq.stream.abort()
            requests.append(seq.request)
        self._inflight.clear()
        return requests

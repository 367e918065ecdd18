"""The live asyncio serving runtime: admission → iterate → stream.

:class:`LiveServer` drives the *real* :class:`repro.cache.engine.PromptCache`
under concurrent load, closing the gap the paper leaves open when it
positions Prompt Cache "as a foundational component for future LLM
serving systems" (§6).

Design:

- **Admission control.** ``submit`` / ``submit_text`` are the only entry
  points. They reject with :class:`~repro.server.errors.Overloaded` when
  the bounded queue is full or the estimated queue delay (EWMA of the
  recent gap between completions × requests ahead in line) exceeds the
  configured budget — load shedding happens *before* a request consumes
  queue slots and deadline budget. Admitted requests wait in a FIFO
  (:mod:`repro.server.batcher`).
- **One dispatcher: iteration-level batching.** A per-token
  :class:`~repro.server.scheduler.ContinuousScheduler` admits queued
  requests every iteration (``PromptCache.open_stream`` /
  ``open_text_stream`` fork the shared spliced base), prefills in
  budgeted chunks, runs one batched single-token forward across all
  in-flight sequences, and retires finished ones immediately — short
  requests never wait behind long decodes. Token timestamps are *real*:
  each iteration reports its emissions as they happen. The engine must
  speak ``open_stream``.
- **Single-threaded engine, responsive loop.** The NumPy engine is the
  serial resource (one model, one machine); iterations, one burst at a
  time, and store upkeep run on the server's own engine thread so the
  event loop keeps admitting, rejecting and expiring requests while the
  engine computes. The thread-safe
  :class:`~repro.cache.storage.ModuleCacheStore` is the only state the
  two threads share.
- **Observability.** Every lifecycle edge lands in a
  :class:`~repro.server.metrics.MetricsRegistry` (Prometheus text / JSON
  snapshots) and a bounded structured trace log. While the server runs,
  store evictions, miss-fetch errors and plan-cache events reach it
  through listeners ``start`` registers on the engine and ``stop``
  removes; they hold the metrics registry, not the server, so a stopped
  server and its engine are freed as soon as they are dropped.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.cache.engine import PromptCache
from repro.pml.errors import PMLError, UnknownSchemaError
from repro.pml.parser import parse_prompt
from repro.server.batcher import CacheAwareBatcher
from repro.server.errors import DeadlineExceeded, Overloaded, ServerClosed
from repro.server.metrics import MetricsRegistry
from repro.server.request import (
    DONE,
    EXPIRED,
    FAILED,
    LiveRequest,
    REJECTED,
    RUNNING,
    TraceRecord,
)
from repro.server.scheduler import (
    MAX_INFLIGHT,
    PREFILL_CHUNK_TOKENS,
    ContinuousScheduler,
    IterationOutcome,
)

BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# Schema label carried by schema-free raw-text requests in traces/metrics.
RAW_SCHEMA = "__raw__"

DEFAULT_MAX_NEW_TOKENS = 16  # a submit that names no budget
INITIAL_SERVICE_S = 0.05  # EWMA seed before any observation
SERVICE_TIME_ALPHA = 0.25  # EWMA smoothing for per-request time
TRACE_LOG_LIMIT = 10_000  # trace records kept, newest last
EVICT_REASON = "capacity"  # the one eviction cause; the metrics label


@dataclass(frozen=True)
class ServeOptions:
    """Tuning knobs for :class:`LiveServer`."""

    max_queue_depth: int = 64  # bounded admission queue
    queue_delay_budget_s: float | None = 2.0  # shed when est. delay exceeds
    max_inflight: int = MAX_INFLIGHT  # concurrent decoding sequences
    prefill_chunk_tokens: int = PREFILL_CHUNK_TOKENS  # per iteration
    # Periodic store upkeep (``ModuleCacheStore.maintenance``: the
    # budgeted predictive prefetch tick, which pulls from a snapshot
    # catalog or peer hook when there is one) every this many seconds even
    # while the server is idle. None disables the background loop; the
    # scheduler still runs upkeep on spare-capacity iterations.
    store_sweep_interval_s: float | None = 1.0


class LiveServer:
    """Async serving runtime over one :class:`PromptCache` engine."""

    def __init__(
        self,
        pc: PromptCache,
        options: ServeOptions | None = None,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        self.pc = pc
        self.options = options or ServeOptions()
        self.metrics = metrics or MetricsRegistry()
        self.clock = clock
        self.batcher = CacheAwareBatcher()
        self.trace_log: list[TraceRecord] = []
        self._ids = itertools.count()
        self._wake: asyncio.Event | None = None
        self._worker_task: asyncio.Task | None = None
        self._maintenance_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None  # the engine thread
        self._running = False
        self._draining = False
        self._inflight = 0
        self._service_ewma_s = INITIAL_SERVICE_S
        self._raw_cached_tokens = 0
        self._raw_prompt_tokens = 0
        self._scheduler: ContinuousScheduler | None = None
        # Written True by the loop thread on every enqueue, read by the
        # engine thread mid-burst (GIL-atomic bool) to cut a burst short
        # the moment an arrival can be admitted.
        self._arrivals_pending = False
        self._queue_labels: set[str] = set()
        self._last_done_at: float | None = None
        self._decode_rate_ewma = 0.0
        # (remove, listener) for each listener start() registered.
        self._listeners: list[tuple] = []
        for tier in (pc.store.gpu, pc.store.cpu):
            # Pre-create the series so scrapes see zeroes before the
            # first eviction rather than an absent family.
            self._eviction_counters(tier)
        self.refresh_store_gauges()

    @property
    def inflight(self) -> int:
        """Requests currently being served (scheduler occupancy)."""
        return self._inflight

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "LiveServer":
        if self._running:
            return self
        self._add_listeners()
        # One engine thread of its own: asyncio's default pool grows a
        # second one for an upkeep tick due mid-step, which then runs
        # beside the iteration with a malloc arena of its own (+60 MB of
        # peak RSS in some runs).
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="engine")
        self._wake = asyncio.Event()
        self._running = True
        self._draining = False
        self._scheduler = ContinuousScheduler(
            self.pc,
            max_inflight=self.options.max_inflight,
            prefill_chunk_tokens=self.options.prefill_chunk_tokens,
            clock=self.clock,
            maintenance=self._store_maintenance,
        )
        self._worker_task = asyncio.create_task(self._scheduler_worker())
        if self.options.store_sweep_interval_s is not None:
            self._maintenance_task = asyncio.create_task(self._maintenance_loop())
        return self

    @property
    def draining(self) -> bool:
        """True once a draining stop began: accepted work still completes,
        but new submissions are refused."""
        return self._draining

    async def stop(self, drain: bool = True) -> None:
        """Stop the worker. With ``drain`` (default) every accepted request
        is served first — while new submissions are rejected with
        :class:`ServerClosed` — otherwise the queue is rejected outright.
        This is the graceful-shutdown contract SIGTERM handlers rely on:
        container shutdown finishes in-flight work instead of dropping it.
        """
        if not self._running:
            return
        if drain:
            self._draining = True
            await self.join()
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            # Wait without raising: a CancelledError caught here would
            # keep this frame, and the server, in its traceback.
            await asyncio.wait([self._maintenance_task])
            self._maintenance_task = None
        if self._worker_task is not None:
            await self._worker_task
            self._worker_task = None
        if self._executor is not None:  # a cancelled tick may still run
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._scheduler is not None:
            # Non-drain stop with sequences mid-decode: release their
            # forks and fail the requests.
            now = self.clock()
            for request in self._scheduler.abort_all():
                request.finished_at = now
                request.finish(FAILED, error=ServerClosed("server stopped"))
                self._count_outcome("failed")
                self._record(request)
            self._inflight = 0
            self._scheduler = None
        for request in self.batcher.drain():
            request.finish(FAILED, error=ServerClosed("server stopped"))
            self._count_outcome("failed")
            self._record(request)
        self._remove_listeners()

    async def join(self) -> None:
        """Wait until the queue and the engine are both idle."""
        while len(self.batcher) or self._inflight:
            await asyncio.sleep(0.002)

    async def __aenter__(self) -> "LiveServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=exc == (None, None, None))

    # -- admission ---------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.batcher)

    def estimated_queue_delay_s(self) -> float:
        """EWMA per-request service time × requests ahead in line."""
        return (len(self.batcher) + self._inflight) * self._service_ewma_s

    async def submit(
        self,
        prompt: str,
        *,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        request_id: str | None = None,
    ) -> LiveRequest:
        """Admit a PML prompt, or raise a typed rejection.

        Raises :class:`ServerClosed`, :class:`UnknownSchemaError` (or
        another :class:`~repro.pml.errors.PMLError` for malformed PML),
        or :class:`Overloaded` — all before the request occupies a queue
        slot.
        """
        if not self._running:
            raise ServerClosed("server is not running")
        if self._draining:
            raise ServerClosed("server is draining; not accepting new requests")
        schema = parse_prompt(prompt).schema  # PMLError on malformed input
        if schema not in self.pc.schemas:
            raise self._reject(
                prompt, schema, UnknownSchemaError(schema, list(self.pc.schemas))
            )
        self._shed_check(prompt, schema)
        return self._enqueue(
            prompt, schema,
            max_new_tokens=max_new_tokens,
            deadline_s=deadline_s,
            request_id=request_id,
        )

    async def submit_text(
        self,
        text: str,
        *,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        request_id: str | None = None,
    ) -> LiveRequest:
        """Admit a schema-free raw-text prompt (no PML, no registration).

        Served through :meth:`PromptCache.open_text_stream`: same tokens
        as the plain KV-cache baseline, but when the engine has a
        discovery miner attached, hot shared prefixes are mined from
        exactly this traffic and spliced from cache. Admission control
        (queue bound, delay shedding, deadlines) is identical to
        :meth:`submit`; the text is tokenized once, on the engine thread.
        """
        if not self._running:
            raise ServerClosed("server is not running")
        if self._draining:
            raise ServerClosed("server is draining; not accepting new requests")
        if not text.strip():
            raise self._reject(text, RAW_SCHEMA, PMLError("empty raw prompt"))
        self._shed_check(text, RAW_SCHEMA)
        return self._enqueue(
            text, RAW_SCHEMA,
            max_new_tokens=max_new_tokens,
            deadline_s=deadline_s,
            request_id=request_id,
            raw=True,
        )

    def _shed_check(self, prompt: str, schema: str) -> None:
        """Raise (and record) :class:`Overloaded` if admission would
        exceed the queue bound or the delay budget."""
        depth = len(self.batcher)
        if depth >= self.options.max_queue_depth:
            raise self._reject(
                prompt, schema,
                Overloaded("queue_depth", depth, self.estimated_queue_delay_s()),
            )
        budget = self.options.queue_delay_budget_s
        estimate = self.estimated_queue_delay_s()
        if budget is not None and estimate > budget:
            raise self._reject(
                prompt, schema, Overloaded("queue_delay", depth, estimate)
            )

    def _enqueue(
        self,
        prompt: str,
        schema: str,
        *,
        max_new_tokens: int | None,
        deadline_s: float | None,
        request_id: str | None,
        raw: bool = False,
    ) -> LiveRequest:
        now = self.clock()
        request = LiveRequest(
            request_id=request_id or f"req-{next(self._ids)}",
            prompt=prompt,
            schema=schema,
            max_new_tokens=(
                DEFAULT_MAX_NEW_TOKENS if max_new_tokens is None else max_new_tokens
            ),
            submitted_at=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
            raw=raw,
        )
        self.batcher.put(request)
        self._arrivals_pending = True
        self._count_outcome("submitted")
        self.metrics.gauge("server_queue_depth", "requests queued").set(
            len(self.batcher)
        )
        self._refresh_queue_gauges()
        assert self._wake is not None
        self._wake.set()
        return request

    def _refresh_queue_gauges(self) -> None:
        """Per-schema queue depth. Labels come from the batcher's
        ``pending_by_schema``, which folds raw traffic into one stable
        ``"<raw>"`` bucket. Schemas that drained since the last refresh
        are zeroed, not left stale."""
        pending = self.batcher.pending_by_schema()
        gauge = partial(
            self.metrics.gauge,
            "server_queue_depth_by_schema", "queued requests per schema",
        )
        for label in self._queue_labels - set(pending):
            gauge(schema=label).set(0)
        for label, count in pending.items():
            gauge(schema=label).set(count)
        self._queue_labels = set(pending)

    async def serve(self, prompt: str, **kwargs):
        """Submit and wait — the one-call convenience path."""
        request = await self.submit(prompt, **kwargs)
        return await request.wait()

    async def serve_text(self, text: str, **kwargs):
        """Submit raw text and wait — the schema-free convenience path."""
        request = await self.submit_text(text, **kwargs)
        return await request.wait()

    def _reject(self, prompt: str, schema: str, error: Exception) -> Exception:
        request = LiveRequest(
            request_id=f"req-{next(self._ids)}",
            prompt=prompt,
            schema=schema,
            max_new_tokens=0,
            submitted_at=self.clock(),
        )
        request.finish(REJECTED, error=error)
        request.finished_at = request.submitted_at
        self._count_outcome("rejected")
        if isinstance(error, Overloaded):
            self.metrics.counter(
                "server_rejections_total", "admission rejections by reason",
                reason=error.reason,
            ).inc()
        else:
            self.metrics.counter(
                "server_rejections_total", "admission rejections by reason",
                reason="unknown_schema",
            ).inc()
        self._record(request)
        return error

    # -- worker ------------------------------------------------------------------

    async def _scheduler_worker(self) -> None:
        """One burst of :meth:`ContinuousScheduler.iterate` per loop
        pass. The iterations run on the engine thread; their outcomes —
        real token timestamps, retired results — are applied back here
        on the loop, where the asyncio request state lives."""
        assert self._wake is not None and self._scheduler is not None
        scheduler = self._scheduler
        loop = asyncio.get_running_loop()
        while self._running:
            now = self.clock()
            self._arrivals_pending = False
            for request in self.batcher.remove_expired(now):
                self._expire(request, now)
            admissions = self._pop_admissions(scheduler)
            if not admissions and not scheduler.active:
                # Idle: nothing in flight, nothing admittable. The
                # timeout only matters in the (theoretical) queued-but-
                # unadmittable case, to keep deadline expiry polling.
                self._wake.clear()
                timeout = 0.05 if len(self.batcher) else None
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout)
                except asyncio.TimeoutError:
                    pass
                continue
            for request in admissions:
                request.state = RUNNING
                request.started_at = now
                request.batch_size = scheduler.active + len(admissions)
            self._inflight = scheduler.active + len(admissions)
            self.metrics.gauge(
                "server_inflight", "requests in the running batch"
            ).set(self._inflight)
            last, stalls = await loop.run_in_executor(
                self._executor, self._run_iterations, scheduler, admissions,
                partial(loop.call_soon_threadsafe, self._apply_outcome),
            )
            self._apply_outcome(last)
            self._count_stalls(stalls)
            self._inflight = scheduler.active

    def _run_iterations(
        self,
        scheduler: ContinuousScheduler,
        admissions: list[LiveRequest],
        hand_off,
    ) -> tuple[IterationOutcome, int]:
        """Engine-thread side: the dispatched iteration plus follow-ons,
        until one frees a slot, an arrival finds a free slot, nothing is
        in flight or the server stops. Returns the last outcome and the
        follow-ons that ran with requests queued (admission stalls).
        Everything else reaches the loop through ``hand_off``: each
        iteration's parts, each earlier outcome. The loop runs callbacks
        in FIFO order and the executor future resolves through the same
        queue, after the last part — so a caller woken by its completion
        submits its next request before the worker resumes and pops it
        for the very next iteration."""
        active = scheduler.active
        outcome = scheduler.iterate(admissions, hand_off)
        stalls = 0
        while (
            outcome.active_after == active + outcome.admitted  # freed no slot
            and outcome.active_after
            and self._running
            and not (self._arrivals_pending and scheduler.predicted_free_slots())
        ):
            try:
                hand_off(outcome)
            except RuntimeError:
                # The loop closed under us (interpreter teardown): nobody
                # is left to deliver to, and stop() owns what is in flight.
                break
            stalls += bool(len(self.batcher))
            active = outcome.active_after
            outcome = scheduler.iterate([], hand_off)
        return outcome, stalls

    def _pop_admissions(self, scheduler: ContinuousScheduler) -> list[LiveRequest]:
        """Oldest-first admission up to the scheduler's free slots, those
        freed by the iteration that just ended included."""
        slots = scheduler.predicted_free_slots()
        admissions: list[LiveRequest] = []
        while len(admissions) < slots:
            request = self.batcher.pop_oldest()
            if request is None:
                break
            admissions.append(request)
        if not admissions and len(self.batcher):
            self._count_stalls(1)
        return admissions

    def _count_stalls(self, stalls: int) -> None:
        if stalls:
            self.metrics.counter(
                "server_admission_stalls_total",
                "iterations that found queued work but no free decode slot",
            ).inc(stalls)

    def _apply_outcome(self, outcome: IterationOutcome) -> None:
        """Apply one hand-off on the loop thread: a part of an iteration
        (its events only) or an iteration's returned outcome (its
        remaining events, then the per-iteration series — those are fed
        once per iteration, from the whole-iteration counters). Events
        for a request that already reached a terminal state — a hand-off
        that lost the race with :meth:`stop` — are dropped."""
        inter = self.metrics.histogram(
            "server_inter_token_seconds",
            "wall time between consecutive tokens of one request",
        )
        for request, token, at in outcome.emitted:
            if request.finished:
                continue
            if request.first_token_at is None:
                request.first_token_at = at
            elif request.last_token_at is not None:
                inter.observe(at - request.last_token_at)
            request.last_token_at = at
            request.push_token(token)

        for request, result, error, at in outcome.finished:
            if request.finished:
                continue
            request.finished_at = at
            if error is not None:
                request.finish(FAILED, error=error)
                self._count_outcome("failed")
            else:
                request.result = result
                request.finish(DONE)
                self._observe_done(request, result)
                # Per-completion pace EWMA feeds load shedding.
                if self._last_done_at is not None and at > self._last_done_at:
                    alpha = SERVICE_TIME_ALPHA
                    self._service_ewma_s = (
                        alpha * (at - self._last_done_at)
                        + (1 - alpha) * self._service_ewma_s
                    )
                self._last_done_at = at
            self._record(request)
        if outcome.partial:
            return
        if outcome.prefill_batch:
            self.metrics.histogram(
                "server_prefill_pack_size",
                "sequences whose last prompt chunk shared one packed prefill",
                buckets=BATCH_SIZE_BUCKETS,
            ).observe(outcome.prefill_batch)
        if outcome.decode_batch:
            self.metrics.histogram(
                "server_iteration_occupancy",
                "sequences in each batched decode step",
                buckets=BATCH_SIZE_BUCKETS,
            ).observe(outcome.decode_batch)
            self.metrics.counter(
                "decode_private_kv_tokens_total",
                "KV tokens streamed per sequence (private suffixes and "
                "ungrouped caches) in batched decode",
            ).inc(outcome.private_kv_tokens)
        if outcome.shared_group_sizes:
            group_size = self.metrics.histogram(
                "decode_shared_group_size",
                "seated forks per shared base in a batched decode step",
                buckets=BATCH_SIZE_BUCKETS,
            )
            for size in outcome.shared_group_sizes:
                group_size.observe(size)
            self.metrics.counter(
                "decode_shared_kv_tokens_total",
                "KV tokens streamed once per shared base in batched decode",
            ).inc(outcome.shared_kv_tokens)
        if outcome.elapsed_s > 0:
            alpha = SERVICE_TIME_ALPHA
            rate = outcome.tokens / outcome.elapsed_s
            self._decode_rate_ewma = (
                alpha * rate + (1 - alpha) * self._decode_rate_ewma
            )
            self.metrics.gauge(
                "server_decode_tokens_per_second",
                "smoothed decode throughput across in-flight sequences",
            ).set(self._decode_rate_ewma)
        self.metrics.gauge("server_queue_depth", "requests queued").set(
            len(self.batcher)
        )
        self._refresh_queue_gauges()
        if outcome.completed:
            self.metrics.gauge(
                "server_estimated_queue_delay_seconds",
                "admission-control delay estimate",
            ).set(self.estimated_queue_delay_s())
            self.refresh_store_gauges()

    async def _maintenance_loop(self) -> None:
        """Periodic store upkeep, alive even while the server is idle —
        predicted modules are pulled up-tier before the next request, not
        on it. The tick runs on the engine thread, queued behind any
        burst."""
        interval = self.options.store_sweep_interval_s
        assert interval is not None
        loop = asyncio.get_running_loop()
        while self._running:
            await asyncio.sleep(interval)
            if not self._running:
                return
            await loop.run_in_executor(self._executor, self._store_maintenance)

    def _store_maintenance(self) -> None:
        """One upkeep tick (engine-thread side): the store's maintenance
        (budgeted predictive prefetch), its pulls booked as counters."""
        report = self.pc.store.maintenance()
        for source, pulled in (
            ("snapshot", report["prefetched"]), ("peer", report["peer_issued"])
        ):
            if pulled:
                self.metrics.counter(
                    "fabric_prefetch_pulls_total",
                    "modules pulled up-tier by the predictive prefetcher",
                    source=source,
                ).inc(pulled)

    def _expire(self, request: LiveRequest, now: float) -> None:
        request.finished_at = now
        request.finish(
            EXPIRED,
            error=DeadlineExceeded(request.request_id, now - request.submitted_at),
        )
        self._count_outcome("expired")
        self.metrics.histogram(
            "server_queue_wait_seconds", "time from submit to dispatch or expiry"
        ).observe(request.queue_wait_s())
        self._record(request)

    # -- observability -----------------------------------------------------------

    def _count_outcome(self, outcome: str) -> None:
        self.metrics.counter(
            "server_requests_total", "requests by terminal outcome", outcome=outcome
        ).inc()

    def _observe_done(self, request: LiveRequest, result) -> None:
        self._count_outcome("completed")
        self.metrics.histogram(
            "server_ttft_seconds", "submit to first token"
        ).observe(request.ttft_s() or 0.0)
        self.metrics.histogram(
            "server_ttlt_seconds", "submit to last token"
        ).observe(request.ttlt_s() or 0.0)
        self.metrics.histogram(
            "server_queue_wait_seconds", "time from submit to dispatch or expiry"
        ).observe(request.queue_wait_s())
        self.metrics.counter(
            "server_tokens_generated_total", "decoded tokens"
        ).inc(len(result.output_ids))
        self.metrics.counter(
            "server_prompt_tokens_total", "prompt tokens by cache status",
            status="cached",
        ).inc(result.cached_tokens)
        self.metrics.counter(
            "server_prompt_tokens_total", "prompt tokens by cache status",
            status="uncached",
        ).inc(result.uncached_tokens)
        if request.raw:
            # Raw traffic separately: cached tokens here came exclusively
            # from *discovered* modules, so this pair is the numerator and
            # denominator of the discovered-hit-rate gauge.
            self.metrics.counter(
                "reuse_discovered_tokens_total",
                "raw prompt tokens by discovered-cache status",
                status="cached",
            ).inc(result.cached_tokens)
            self.metrics.counter(
                "reuse_discovered_tokens_total",
                "raw prompt tokens by discovered-cache status",
                status="uncached",
            ).inc(result.uncached_tokens)
            self._raw_cached_tokens += result.cached_tokens
            self._raw_prompt_tokens += result.cached_tokens + result.uncached_tokens

    def _record(self, request: LiveRequest) -> None:
        self.trace_log.append(request.trace())
        if len(self.trace_log) > TRACE_LOG_LIMIT:
            del self.trace_log[: len(self.trace_log) - TRACE_LOG_LIMIT]

    def _eviction_counters(self, tier) -> tuple:
        return (
            self.metrics.counter(
                "cache_evictions_total", "module-store evictions",
                tier=tier.name, reason=EVICT_REASON,
            ),
            self.metrics.counter(
                "cache_evicted_bytes_total", "bytes evicted from the store",
                tier=tier.name, reason=EVICT_REASON,
            ),
        )

    def _add_listeners(self) -> None:
        """Export store evictions, miss-fetch errors and the engine's
        compiled-plan cache events as counters, until ``stop``. The
        listeners close over the metrics registry alone."""
        metrics = self.metrics
        store = self.pc.store
        for tier in (store.gpu, store.cpu):
            evictions, evicted_bytes = self._eviction_counters(tier)

            def on_evict(entry, evictions=evictions, evicted_bytes=evicted_bytes):
                evictions.inc()
                evicted_bytes.inc(entry.nbytes)

            tier.add_evict_listener(on_evict)
            self._listeners.append((tier.remove_evict_listener, on_evict))

        def on_fetch_error(key, exc):
            metrics.counter(
                "cache_miss_fetch_errors_total",
                "miss-fetcher exceptions by exception type",
                reason=type(exc).__name__,
            ).inc()

        store.add_fetch_error_listener(on_fetch_error)
        self._listeners.append((store.remove_fetch_error_listener, on_fetch_error))
        add_listener = getattr(self.pc, "add_plan_cache_listener", None)
        if add_listener is None:  # stub engines in tests
            return
        counters = {
            event: metrics.counter(
                "plan_cache_events_total",
                "compiled-plan cache hits/misses/invalidations",
                event=event,
            )
            for event in ("hit", "miss", "invalidation")
        }

        def on_plan_event(event):
            counters[event].inc()

        add_listener(on_plan_event)
        self._listeners.append((self.pc.remove_plan_cache_listener, on_plan_event))

    def _remove_listeners(self) -> None:
        for remove, listener in self._listeners:
            remove(listener)
        self._listeners.clear()

    def refresh_store_gauges(self) -> None:
        """Mirror the module store's counters into the registry."""
        stats_fn = getattr(self.pc, "plan_cache_stats", None)
        if stats_fn is not None:
            stats = stats_fn()
            self.metrics.gauge(
                "plan_cache_hit_rate", "compiled-plan hits / lookups"
            ).set(stats.hit_rate)
            self.metrics.gauge(
                "plan_cache_base_hits", "serves that reused a spliced base"
            ).set(stats.base_hits)
        for tier in (self.pc.store.gpu, self.pc.store.cpu):
            stats = tier.stats
            g = self.metrics.gauge
            g("cache_tier_hits", "store lookups served", tier=tier.name).set(stats.hits)
            g("cache_tier_misses", "store lookups missed", tier=tier.name).set(
                stats.misses
            )
            g("cache_tier_hit_rate", "hits / lookups", tier=tier.name).set(
                stats.hit_rate
            )
            g("cache_tier_used_bytes", "resident bytes", tier=tier.name).set(
                tier.used_bytes
            )
            g("cache_tier_insertions", "entries inserted", tier=tier.name).set(
                stats.insertions
            )
        self._refresh_fabric_gauges()
        self._refresh_reuse_gauges()

    def _refresh_fabric_gauges(self) -> None:
        """Mirror the store's colder tiers, placement and prefetch into
        gauges and counters."""
        snap = self.pc.store.fabric_snapshot()
        g = self.metrics.gauge
        g("fabric_catalog_entries", "modules cataloged in the snapshot tier").set(
            snap["catalog_entries"]
        )
        g("fabric_reencodes", "encodes of a module the fabric once held").set(
            snap["reencodes"]
        )
        g("fabric_first_encodes", "encodes of a module never held before").set(
            snap["first_encodes"]
        )
        # Monotonic like the eviction counters they sit beside; the store
        # keeps the totals, so a refresh brings each counter up to date.
        for name, field, text in (
            ("cache_spills_total", "spills",
             "DRAM victims written back to the snapshot tier"),
            ("cache_spill_bytes_total", "spill_bytes",
             "payload bytes written back to the snapshot tier"),
            ("cache_spill_errors_total", "spill_errors",
             "write-backs that failed (the victim was dropped)"),
        ):
            counter = self.metrics.counter(name, text)
            counter.inc(max(0.0, snap[field] - counter.value))
        for result in ("hashed", "trusted", "failed"):
            counter = self.metrics.counter(
                "snapshot_verify_total",
                "payload files a snapshot page-in hashed, mapped on the state "
                "its digest last matched at, or refused",
                result=result,
            )
            counter.inc(max(0.0, snap[f"verify_{result}"] - counter.value))
        for tier_name in ("snapshot", "peer"):
            stats = snap["tiers"][tier_name]
            g("cache_tier_hits", "store lookups served", tier=tier_name).set(
                stats["hits"]
            )
            g("cache_tier_misses", "store lookups missed", tier=tier_name).set(
                stats["misses"]
            )
        placement = snap["placement"]
        for event in ("promotions", "demotions", "drops", "spills"):
            g(
                "fabric_placement_decisions",
                "placement engine decisions by kind",
                kind=event,
            ).set(placement[event])
        prefetch = snap["prefetch"]
        g("fabric_prefetch_planned", "prefetch pulls planned").set(
            prefetch["planned"]
        )
        g(
            "fabric_prefetch_budget_denied",
            "prefetch pulls deferred by the byte budget",
        ).set(prefetch["budget_denied"])

    def _refresh_reuse_gauges(self) -> None:
        """Mirror the reuse-discovery plane (trie + miner) into gauges."""
        discovery = getattr(self.pc, "discovery", None)
        if discovery is None:
            return
        snap = discovery.snapshot()
        g = self.metrics.gauge
        g("reuse_trie_nodes", "radix-trie node count").set(snap["trie_nodes"])
        g("reuse_trie_tokens", "radix-trie resident tokens").set(snap["trie_tokens"])
        g("reuse_modules", "live discovered modules").set(snap["modules"])
        g("reuse_promotions", "segments promoted to modules").set(snap["promotions"])
        g("reuse_demotions", "modules demoted by trie eviction").set(snap["demotions"])
        g("reuse_trie_evictions", "trie nodes evicted").set(snap["trie_evictions"])
        g("reuse_observed_sequences", "raw sequences mined").set(
            snap["observed_sequences"]
        )
        hit_rate = (
            self._raw_cached_tokens / self._raw_prompt_tokens
            if self._raw_prompt_tokens
            else 0.0
        )
        g(
            "reuse_discovered_hit_rate",
            "raw prompt tokens served from discovered modules",
        ).set(hit_rate)

    def snapshot(self) -> dict:
        """JSON-ready metrics snapshot (store gauges refreshed first)."""
        self.refresh_store_gauges()
        return self.metrics.snapshot()

    def prometheus(self) -> str:
        """Prometheus text exposition (store gauges refreshed first)."""
        self.refresh_store_gauges()
        return self.metrics.to_prometheus()

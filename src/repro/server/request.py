"""Request lifecycle types for the live serving runtime.

A request moves through::

    submit → QUEUED → RUNNING → DONE
                 ↘ REJECTED (admission)   ↘ FAILED (engine error)
                 ↘ EXPIRED (deadline mid-queue)
                 ↘ CANCELLED (client)

:class:`LiveRequest` is the runtime's handle: it owns the token stream,
the completion event, and every lifecycle timestamp, and it flattens to
a :class:`TraceRecord` — the structured per-request trace the
observability layer keeps.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator

from repro.cache.engine import ServeResult

# Lifecycle states (plain strings so records serialize trivially).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
REJECTED = "rejected"
EXPIRED = "expired"
CANCELLED = "cancelled"
FAILED = "failed"

TERMINAL_STATES = frozenset({DONE, REJECTED, EXPIRED, CANCELLED, FAILED})

_STREAM_END = None  # sentinel closing the token stream


@dataclass
class TraceRecord:
    """One finished request, flattened for logs/analysis."""

    request_id: str
    schema: str
    state: str
    submitted_at: float
    queue_wait_s: float
    ttft_s: float | None  # submit → first token (None if never served)
    ttlt_s: float | None  # submit → last token
    cached_tokens: int
    uncached_tokens: int
    output_tokens: int
    batch_size: int
    error: str | None = None

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class LiveRequest:
    """A submitted request plus everything observed about it."""

    request_id: str
    prompt: str
    schema: str
    max_new_tokens: int
    submitted_at: float
    deadline_at: float | None = None  # absolute, on the runtime clock
    state: str = QUEUED
    # Schema-free raw-text request (served via
    # ``PromptCache.open_text_stream``, mined by reuse discovery) —
    # ``schema`` then holds the "__raw__" label.
    raw: bool = False

    # Lifecycle timestamps (runtime clock).
    started_at: float | None = None
    first_token_at: float | None = None
    # Most recent token emission — the scheduler's anchor for
    # inter-token latency (first_token_at stays fixed once set).
    last_token_at: float | None = None
    finished_at: float | None = None
    batch_size: int = 0

    result: ServeResult | None = None
    error: Exception | None = None

    _tokens: asyncio.Queue = field(default_factory=asyncio.Queue, repr=False)
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    # -- observers ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def queue_wait_s(self) -> float:
        if self.started_at is None:
            return (self.finished_at or self.submitted_at) - self.submitted_at
        return self.started_at - self.submitted_at

    def ttft_s(self) -> float | None:
        if self.first_token_at is None:
            return None
        return self.first_token_at - self.submitted_at

    def ttlt_s(self) -> float | None:
        if self.finished_at is None or self.state != DONE:
            return None
        return self.finished_at - self.submitted_at

    # -- consumption -------------------------------------------------------------

    async def wait(self) -> ServeResult:
        """Block until terminal; return the result or raise the error."""
        await self._done.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result

    async def stream(self) -> AsyncIterator[int]:
        """Yield generated token ids as the runtime releases them."""
        while True:
            token = await self._tokens.get()
            if token is _STREAM_END:
                if self.error is not None:
                    raise self.error
                return
            yield token

    # -- runtime-side transitions -------------------------------------------------

    def push_token(self, token: int) -> None:
        self._tokens.put_nowait(token)

    def finish(self, state: str, *, error: Exception | None = None) -> None:
        """Move to a terminal state and release every waiter."""
        self.state = state
        self.error = error
        self._tokens.put_nowait(_STREAM_END)
        self._done.set()

    def trace(self) -> TraceRecord:
        return TraceRecord(
            request_id=self.request_id,
            schema=self.schema,
            state=self.state,
            submitted_at=self.submitted_at,
            queue_wait_s=self.queue_wait_s(),
            ttft_s=self.ttft_s(),
            ttlt_s=self.ttlt_s(),
            cached_tokens=self.result.cached_tokens if self.result else 0,
            uncached_tokens=self.result.uncached_tokens if self.result else 0,
            output_tokens=len(self.result.output_ids) if self.result else 0,
            batch_size=self.batch_size,
            error=None if self.error is None else str(self.error),
        )

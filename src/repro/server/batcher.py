"""The FIFO admission queue between ``submit`` and the scheduler.

Batching happens at the *token* level, inside
:class:`~repro.server.scheduler.ContinuousScheduler`; what waits here is
a plain arrival-ordered queue. Arrival-order admission is also the
no-starvation guarantee: no schema mix can keep a queued request waiting
behind later arrivals. Synchronous and clock-parameterised, so it is
unit-testable without an event loop.
"""

from __future__ import annotations

from collections import deque

from repro.server.request import LiveRequest

# Metrics label covering every raw-text request: raw prompts have no
# schema, and their "__raw__" trace label is kept out of the per-schema
# queue gauge so raw traffic reads as one stable bucket.
RAW_BUCKET = "<raw>"


class CacheAwareBatcher:
    """Arrival-ordered admission queue feeding the scheduler worker (the
    cache-aware batching itself is the scheduler's shared-prefix step)."""

    def __init__(self) -> None:
        self._queue: deque[LiveRequest] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def put(self, request: LiveRequest) -> None:
        """Enqueue at submission; submissions arrive in order."""
        self._queue.append(request)

    def pop_oldest(self) -> LiveRequest | None:
        """Pop the oldest queued request, or None when empty."""
        return self._queue.popleft() if self._queue else None

    def pending_by_schema(self) -> dict[str, int]:
        """Queued request counts keyed by a *bounded* schema label:
        every raw request lands in :data:`RAW_BUCKET`."""
        out: dict[str, int] = {}
        for request in self._queue:
            label = RAW_BUCKET if request.raw else request.schema
            out[label] = out.get(label, 0) + 1
        return out

    def remove_expired(self, now: float) -> list[LiveRequest]:
        """Pull every queued request whose deadline already passed —
        deadline expiry *mid-queue*, before any compute is spent on it."""
        expired = [
            r for r in self._queue
            if r.deadline_at is not None and r.deadline_at <= now
        ]
        if expired:
            self._queue = deque(
                r for r in self._queue
                if r.deadline_at is None or r.deadline_at > now
            )
        return expired

    def drain(self) -> list[LiveRequest]:
        """Remove and return everything still queued (shutdown path)."""
        out = list(self._queue)
        self._queue.clear()
        return out

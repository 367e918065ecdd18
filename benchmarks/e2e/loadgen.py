"""Open- and closed-loop drivers with client-observed timings.

Every time here is taken where the client reads it: a token's time is
the moment ``request.stream()`` yields it, so the executor hop and the
burst delivery lag of the server are inside it. An open loop times a
request from when it was *due*, not from when it was sent, so a stall
shows in the requests that waited behind it.

The server is duck-typed: ``await server.submit(prompt, max_new_tokens=,
request_id=)`` / ``submit_text`` returning a handle with an async
``stream()``. The harness tests drive these loops with a stub.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

now = time.monotonic  # the clock the server stamps its own events with


@dataclass
class Record:
    """What one client saw of one request."""

    request: object  # workloads.Request
    due: float  # open loop: scheduled send time; closed loop: send time
    sent: float = 0.0
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    done: float | None = None  # stream ended (completed or failed)
    error: str | None = None  # exception type name
    handle: object = None  # the server's request handle, for its own timestamps

    @property
    def completed(self) -> bool:
        return self.done is not None and self.error is None


@dataclass
class PhaseResult:
    name: str
    mode: str
    records: list[Record]  # every request sent, warm-up included, in send order
    t0: float  # start of the timed window
    t1: float  # end of the timed window
    loop_cpu_s: float = 0.0  # CPU time of the event-loop thread inside the window


async def _drive(server, record: Record) -> None:
    request = record.request
    record.sent = now()
    submit = server.submit_text if request.kind == "text" else server.submit
    try:
        handle = await submit(
            request.prompt,
            max_new_tokens=request.max_new_tokens,
            request_id=f"r{request.number}",
        )
        record.handle = handle
        async for token in handle.stream():
            record.token_times.append(now())
            record.tokens.append(token)
    except Exception as exc:  # a refusal, an expiry or an engine fault: tally it
        record.error = type(exc).__name__
    record.done = now()


async def run_open(server, requests, dues, *, warmup_s: float, name: str = "open") -> PhaseResult:
    """Send each request at its due time whether or not earlier ones
    finished, then wait for all of them. The timed window opens
    ``warmup_s`` after the first due time and closes at the last one."""
    start = now()
    records: list[Record] = []
    tasks: list[asyncio.Task] = []
    cpu0 = None
    for request, due in zip(requests, dues):
        delay = start + due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        if cpu0 is None and due >= warmup_s:
            cpu0 = time.thread_time()
        record = Record(request, due=start + due)
        records.append(record)
        tasks.append(asyncio.create_task(_drive(server, record)))
    cpu1 = time.thread_time()
    t1 = now()
    await asyncio.gather(*tasks)
    return PhaseResult(
        name, "open", records, t0=start + warmup_s, t1=t1,
        loop_cpu_s=cpu1 - (cpu0 if cpu0 is not None else cpu1),
    )


async def run_closed(
    server, requests, *, clients: int, warmup_requests: int, seconds: float,
    name: str = "closed",
) -> PhaseResult:
    """``clients`` callers, each sending its next request when the last
    one completed. The first ``warmup_requests`` sends are untimed; the
    window opens at the next send and closes ``seconds`` later, when the
    callers stop and whatever is still in flight is abandoned (it counts
    as neither attempted nor failed)."""
    queue = iter(requests)
    records: list[Record] = []
    window = {"t0": None, "cpu0": 0.0}
    opened = asyncio.Event()

    async def caller() -> None:
        while True:
            request = next(queue, None)
            if request is None:
                raise RuntimeError(
                    f"{name}: request list exhausted before the window closed; "
                    "raise the phase's max_rate"
                )
            if window["t0"] is None and len(records) >= warmup_requests:
                window["t0"] = now()
                window["cpu0"] = time.thread_time()
                opened.set()
            record = Record(request, due=now())
            records.append(record)
            await _drive(server, record)

    async def closer() -> None:
        await opened.wait()
        await asyncio.sleep(window["t0"] + seconds - now())

    tasks = [asyncio.create_task(caller()) for _ in range(clients)]
    tasks.append(asyncio.create_task(closer()))
    await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
    t1, cpu1 = now(), time.thread_time()
    for task in tasks:
        task.cancel()
    for outcome in await asyncio.gather(*tasks, return_exceptions=True):
        if isinstance(outcome, Exception):  # a caller never returns: it raised
            raise outcome
    return PhaseResult(
        name, "closed", records, t0=window["t0"], t1=t1,
        loop_cpu_s=cpu1 - window["cpu0"],
    )

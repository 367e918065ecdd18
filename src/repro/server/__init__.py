"""Live async serving runtime: Prompt Cache under real concurrent load.

An asyncio runtime (:class:`LiveServer`) drives the real
:class:`repro.cache.engine.PromptCache` with admission control,
iteration-level batching, deadlines, load shedding, metrics, and a seeded
load generator that replays :mod:`repro.serving` traces.
"""

from repro.server.batcher import CacheAwareBatcher
from repro.server.errors import (
    DeadlineExceeded,
    Overloaded,
    RequestCancelled,
    ServerClosed,
    ServerError,
)
from repro.server.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.server.request import LiveRequest, TraceRecord
from repro.server.runtime import LiveServer, ServeOptions
from repro.server.scheduler import ContinuousScheduler, IterationOutcome

# The load generator drives a server; serving does not need it. Resolved
# on first use (PEP 562) so importing the runtime does not pay for it.
_LOADGEN = frozenset(
    {"LiveWorkload", "LoadReport", "build_workload", "run_open_loop"}
)


def __getattr__(name: str):
    if name not in _LOADGEN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.server import loadgen

    value = getattr(loadgen, name)
    globals()[name] = value
    return value


__all__ = [
    "CacheAwareBatcher",
    "ContinuousScheduler",
    "Counter",
    "IterationOutcome",
    "DeadlineExceeded",
    "Gauge",
    "Histogram",
    "LiveRequest",
    "LiveServer",
    "LiveWorkload",
    "LoadReport",
    "MetricsRegistry",
    "Overloaded",
    "RequestCancelled",
    "ServeOptions",
    "ServerClosed",
    "ServerError",
    "TraceRecord",
    "build_workload",
    "run_open_loop",
]

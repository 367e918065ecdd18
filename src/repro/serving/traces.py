"""Workload trace synthesis for the live server's load generators.

Models the serving scenario the paper motivates: a pool of schemas
(document sets, templates) with skewed popularity, Poisson request
arrivals, and per-request cached/uncached/decode token counts jittered
around each schema's means. The CLI, the load generators
(:mod:`repro.server.loadgen`, :mod:`repro.cluster.loadgen`) and the
fabric prefetcher's priors read these traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SchemaProfile:
    """Aggregate shape of requests hitting one schema."""

    name: str
    module_tokens: int  # cached module content per request
    uncached_mean: int  # directive/question tokens
    decode_mean: int  # generated tokens
    weight: float = 1.0  # relative popularity


@dataclass(frozen=True)
class TraceRequest:
    request_id: int
    arrival_s: float
    schema: str
    cached_tokens: int
    uncached_tokens: int
    decode_tokens: int

    @property
    def total_prompt_tokens(self) -> int:
        return self.cached_tokens + self.uncached_tokens


def poisson_arrivals(
    rate_rps: float, duration_s: float, rng: np.random.Generator
) -> list[float]:
    """Arrival times of a Poisson process over [0, duration)."""
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_rps))
        if t >= duration_s:
            return times
        times.append(t)


def synthesize_trace(
    profiles: list[SchemaProfile],
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
) -> list[TraceRequest]:
    """Poisson arrivals; schema drawn by popularity; token counts jittered
    ±20% around each profile's means (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    weights = np.array([p.weight for p in profiles], dtype=float)
    weights /= weights.sum()

    def jitter(mean: int) -> int:
        return max(int(rng.normal(mean, 0.1 * mean)), 1)

    requests: list[TraceRequest] = []
    for i, arrival in enumerate(poisson_arrivals(rate_rps, duration_s, rng)):
        profile = profiles[int(rng.choice(len(profiles), p=weights))]
        requests.append(
            TraceRequest(
                request_id=i,
                arrival_s=arrival,
                schema=profile.name,
                cached_tokens=jitter(profile.module_tokens),
                uncached_tokens=jitter(profile.uncached_mean),
                decode_tokens=jitter(profile.decode_mean),
            )
        )
    return requests


def schema_interarrivals(trace: list[TraceRequest]) -> dict[str, float]:
    """Mean inter-arrival seconds per schema, mined from a trace.

    The fabric prefetcher seeds its per-schema demand estimates from this:
    a schema whose requests land every ~2 s should have its modules pulled
    up-tier shortly before the next predicted arrival. Schemas seen only
    once have no interval and are omitted.
    """
    arrivals: dict[str, list[float]] = {}
    for request in trace:
        arrivals.setdefault(request.schema, []).append(request.arrival_s)
    means: dict[str, float] = {}
    for schema, times in arrivals.items():
        if len(times) < 2:
            continue
        times.sort()
        gaps = [b - a for a, b in zip(times, times[1:])]
        means[schema] = sum(gaps) / len(gaps)
    return means


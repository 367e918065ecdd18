"""Multi-server scheduling with cache-affinity routing.

Prompt Cache makes request placement matter: a server that already holds a
schema's modules serves its requests with a splice, any other server pays
the encode (or an h2d fetch). This module extends the single-server
simulator to a fleet and compares routing policies:

- ``round-robin`` — cache-oblivious spreading;
- ``least-loaded`` — queue-length balancing, cache-oblivious;
- ``affinity`` — consistent hashing of the schema to a home server, with
  spill to the least-loaded server when the home queue is deep.

The affinity policy is the natural design for a Prompt Cache fleet: it
concentrates each schema's traffic so modules are encoded once per fleet
instead of once per server.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.serving.simulator import RequestOutcome, SimConfig, SimReport, _service_times
from repro.serving.traces import TraceRequest

ROUTING_POLICIES = ("round-robin", "least-loaded", "affinity")


@dataclass
class _Server:
    index: int
    free_at: float = 0.0
    store: ModuleCacheStore | None = None
    report: SimReport = field(default_factory=lambda: SimReport(mode="prompt-cache"))


@dataclass
class FleetReport:
    policy: str
    servers: list[SimReport]
    outcomes: list[RequestOutcome] = field(default_factory=list)

    def ttft_percentile(self, q: float) -> float:
        ttfts = [o.ttft_s for o in self.outcomes]
        return float(np.percentile(ttfts, q)) if ttfts else 0.0

    @property
    def total_encodes(self) -> int:
        return sum(s.encode_events for s in self.servers)

    @property
    def mean_ttft_s(self) -> float:
        ttfts = [o.ttft_s for o in self.outcomes]
        return float(np.mean(ttfts)) if ttfts else 0.0


class FleetScheduler:
    """Dispatch a trace across ``n_servers`` identical servers."""

    def __init__(
        self,
        cfg: SimConfig,
        n_servers: int,
        policy: str = "affinity",
        spill_queue_s: float = 4.0,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ValueError(f"policy must be one of {ROUTING_POLICIES}")
        self.cfg = cfg
        self.policy = policy
        self.spill_queue_s = spill_queue_s
        self.servers = [
            _Server(
                index=i,
                store=(
                    ModuleCacheStore(gpu_capacity_bytes=cfg.gpu_capacity_bytes)
                    if cfg.mode == "prompt-cache"
                    else None
                ),
            )
            for i in range(n_servers)
        ]
        self._rr_next = 0

    # -- routing ----------------------------------------------------------------

    def _route(self, request: TraceRequest, now: float) -> _Server:
        if self.policy == "round-robin":
            server = self.servers[self._rr_next % len(self.servers)]
            self._rr_next += 1
            return server
        if self.policy == "least-loaded":
            return min(self.servers, key=lambda s: max(s.free_at - now, 0.0))
        # affinity: consistent hash, spill when the home queue is deep.
        home = self.servers[zlib.crc32(request.schema.encode()) % len(self.servers)]
        if max(home.free_at - now, 0.0) > self.spill_queue_s:
            return min(self.servers, key=lambda s: max(s.free_at - now, 0.0))
        return home

    # -- simulation --------------------------------------------------------------

    def run(self, trace: list[TraceRequest]) -> FleetReport:
        report = FleetReport(policy=self.policy, servers=[s.report for s in self.servers])
        for request in sorted(trace, key=lambda r: r.arrival_s):
            server = self._route(request, request.arrival_s)
            start = max(request.arrival_s, server.free_at)
            prefill_s, decode_s = _service_times(
                self.cfg, request, server.store, server.report
            )
            ttft_done = start + prefill_s
            finish = ttft_done + decode_s
            server.free_at = finish
            outcome = RequestOutcome(
                request=request, start_s=start, ttft_done_s=ttft_done, finish_s=finish
            )
            server.report.outcomes.append(outcome)
            report.outcomes.append(outcome)
        return report


def compare_policies(
    trace: list[TraceRequest],
    cfg: SimConfig,
    n_servers: int = 4,
    spill_queue_s: float = 4.0,
) -> dict[str, FleetReport]:
    """Run the same trace under every routing policy.

    ``spill_queue_s`` tunes affinity's encode-vs-balance trade-off: lower
    thresholds spill hot-schema bursts to other servers sooner (extra
    encodes) instead of queueing at the home server (tail latency).
    """
    return {
        policy: FleetScheduler(cfg, n_servers, policy, spill_queue_s).run(list(trace))
        for policy in ROUTING_POLICIES
    }

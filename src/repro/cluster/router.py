"""Cluster router: consistent-hash request placement plus failure handling.

The router front-ends N :class:`~repro.cluster.worker.ClusterWorker`\\ s.
Placement is **cache-affine**: the routing key is ``(schema, imported
module set)``, so prompts that would splice the same modules land on the
same worker and hit its warm store. A consistent-hash ring (virtual
nodes) keeps that mapping stable as workers come and go — when one
worker dies, only its arc of keys moves.

Affinity yields to load: if the home worker's queue is deeper than the
spill threshold, the request spills to the least-loaded healthy worker.
The spilled worker will miss locally on the home worker's modules and
pull them over the distribution plane — one fetch, then warm — which is
exactly the trade the plane exists to make cheap.

Residency beats the ring: workers advertise the module tags they can
serve without re-encoding (both resident tiers, plus the store's
snapshot catalog) in their heartbeats, and ``pick_worker`` prefers a
healthy, unsaturated worker already holding the request's modules over
plain consistent-hash placement. The ring remains the fallback — and the
tiebreak — so placement stays stable when nobody (or everybody) is
resident, and failover still walks the preference list.

Failure model: workers heartbeat into a :class:`HeartbeatMonitor`; the
router's watchdog sweeps for silent workers, declares them dead, removes
them from the ring (``cluster_rebalance_total``), and releases their
queued requests so waiters fail over. ``serve`` retries a failed-over
request on the next worker in ring preference order; engines are
deterministic, so a retried request returns byte-identical output.
Requests the dead worker *finished* are already answered; requests it
merely queued are re-run elsewhere — no accepted request is lost.
"""

from __future__ import annotations

import asyncio

from repro.cache.storage import CacheKey
from repro.cluster.health import DEAD, HeartbeatMonitor, UP
from repro.cluster.ring import HashRing
from repro.cluster.worker import ClusterWorker
from repro.pml.ast import ImportNode, PromptNode
from repro.pml.parser import parse_prompt
from repro.server.errors import ServerClosed
from repro.server.metrics import MetricsRegistry

# Counter families rolled up from worker registries into router gauges.
_AGGREGATED_COUNTERS = (
    ("cluster_peer_fetch_total", ("outcome",), ("hit", "miss", "deduped", "retry", "error")),
    ("cluster_export_requests_total", ("outcome",), ("served", "not_found")),
    ("server_requests_total", ("outcome",), ("submitted", "completed", "failed", "expired", "rejected")),
)
_AGGREGATED_SCALARS = (
    "cluster_reencode_avoided_tokens_total",
    "cluster_fetch_bytes_total",
    "cluster_export_bytes_total",
    "server_tokens_generated_total",
)


class NoWorkerAvailable(ServerClosed):
    """Every worker is dead, draining, or already tried for this request."""


def _imported_names(prompt: PromptNode) -> set[str]:
    names: set[str] = set()

    def walk(children) -> None:
        for child in children:
            if isinstance(child, ImportNode):
                names.add(child.name)
                walk(child.children)

    walk(prompt.children)
    return names


def routing_key(prompt: PromptNode) -> str:
    """``schema|sorted imported modules`` — prompts importing the same
    module set share a placement (and therefore a warm store)."""
    return f"{prompt.schema}|{','.join(sorted(_imported_names(prompt)))}"


def module_tags(prompt: PromptNode) -> frozenset:
    """Store tags (``schema/module/solo``) for the modules a prompt
    imports — the same vocabulary workers advertise residency in, so the
    router can intersect the two when placing the request."""
    return frozenset(
        CacheKey(prompt.schema, name).tag() for name in _imported_names(prompt)
    )


class ClusterRouter:
    """Route requests across cluster workers; survive worker death."""

    def __init__(
        self,
        workers: list[ClusterWorker],
        vnodes: int = 64,
        spill_queue_depth: int = 8,
        raw_affinity_tokens: int = 32,
        metrics: MetricsRegistry | None = None,
        monitor: HeartbeatMonitor | None = None,
        watchdog_interval_s: float = 0.05,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate worker names: {names}")
        self.workers = {w.name: w for w in workers}
        self.ring = HashRing(vnodes=vnodes)
        self.spill_queue_depth = spill_queue_depth
        self.raw_affinity_tokens = raw_affinity_tokens
        self.metrics = metrics or MetricsRegistry()
        self.monitor = monitor or HeartbeatMonitor()
        self.watchdog_interval_s = watchdog_interval_s
        self._watchdog_task: asyncio.Task | None = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "ClusterRouter":
        if self._running:
            return self
        for worker in self.workers.values():
            self.monitor.register(worker.name)
            worker.heartbeat_sink = self.monitor.beat
            worker.peer_resolver = self._make_resolver(worker.name)
            await worker.start()
            self.ring.add(worker.name)
        self._running = True
        self._watchdog_task = asyncio.create_task(self._watchdog())
        return self

    async def stop(self, drain: bool = True) -> None:
        if not self._running:
            return
        self._running = False
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass  # expected: we cancelled it
            self._watchdog_task = None
        # Drain concurrently: a draining worker's exporter still serves,
        # so peers finishing their queues can fetch from it until the end.
        await asyncio.gather(
            *(w.stop(drain=drain) for w in self.workers.values()
              if w.name not in self._dead_names())
        )

    @property
    def closed(self) -> bool:
        """True once ``stop`` has begun: the router refuses new work
        (load generators should stop offering arrivals)."""
        return not self._running

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=exc == (None, None, None))

    def _dead_names(self) -> set[str]:
        return {n for n, h in self.monitor.workers.items() if h.state == DEAD}

    # -- schemas -----------------------------------------------------------------

    def register_schema(self, source: str, eager: bool = False) -> None:
        """Register a schema on every worker (lazily by default — modules
        encode where requests land, or arrive by peer fetch)."""
        for worker in self.workers.values():
            worker.register_schema(source, eager=eager)

    # -- placement ---------------------------------------------------------------

    def route_key(self, prompt: str) -> str:
        return routing_key(parse_prompt(prompt))

    def route_key_text(self, text: str) -> str:
        """Discovered-prefix affinity key for schema-free raw text.

        Keyed on the token *content* of the longest prefix any live
        worker's miner has promoted (stable across workers — module
        names are per-miner and die with them), falling back to the
        first ``raw_affinity_tokens`` tokens when nothing is discovered
        yet. Either way, prompts sharing a prefix land on one worker —
        which is what lets that worker's miner see the repeats and
        promote in the first place.
        """
        ids = self._tokenizer().encode(text)
        cover = 0
        for worker in self.workers.values():
            if worker._killed:
                continue
            discovery = getattr(worker.pc, "discovery", None)
            if discovery is not None:
                cover = max(cover, discovery.matched_prefix_len(ids))
        if cover == 0:
            cover = min(len(ids), self.raw_affinity_tokens)
        return "__raw__|" + ",".join(str(int(t)) for t in ids[:cover])

    def _tokenizer(self):
        for worker in self.workers.values():
            if not worker._killed:
                return worker.pc.tokenizer
        raise NoWorkerAvailable("every worker is dead")

    def pick_worker(
        self,
        key: str,
        exclude: set[str] | None = None,
        resident_tags: frozenset | None = None,
    ) -> ClusterWorker | None:
        """Residency-first, then home-or-spill placement among healthy
        workers. A worker already advertising the request's modules as
        resident serves them without a peer fetch or re-encode, so it
        outranks the consistent-hash home; ring preference breaks score
        ties, and saturated workers are passed over the same way a
        saturated home spills. No residency overlap (or none with queue
        room) falls through to plain ring placement."""
        exclude = exclude or set()
        prefs = [
            name for name in self.ring.preference_list(key)
            if name not in exclude and self._routable(name)
        ]
        if not prefs:
            return None
        resident = self._pick_resident(prefs, resident_tags)
        if resident is not None:
            return resident
        home = self.workers[prefs[0]]
        if home.server.queue_depth < self.spill_queue_depth:
            return home
        # Home is saturated: spill to the shallowest healthy queue if one
        # is meaningfully lighter; otherwise stay home (admission control
        # sheds if truly overloaded).
        spill_name = min(prefs, key=lambda n: self.workers[n].server.queue_depth)
        if spill_name != home.name:
            spill = self.workers[spill_name]
            if spill.server.queue_depth < self.spill_queue_depth:
                self.metrics.counter(
                    "cluster_spill_total",
                    "requests routed off their home worker for load",
                ).inc()
                return spill
        return home

    def _pick_resident(
        self, prefs: list[str], resident_tags: frozenset | None
    ) -> ClusterWorker | None:
        """Best residency overlap among routable workers with queue room;
        ``prefs`` arrives in ring-preference order, which is the tiebreak
        (strictly-better score required to displace an earlier worker)."""
        if not resident_tags:
            return None
        best_name, best_score = None, 0
        for name in prefs:
            health = self.monitor.workers.get(name)
            if health is None:
                continue
            score = len(resident_tags & health.resident)
            if (
                score > best_score
                and self.workers[name].server.queue_depth < self.spill_queue_depth
            ):
                best_name, best_score = name, score
        if best_name is None:
            return None
        self.metrics.counter(
            "cluster_residency_routed_total",
            "requests placed on a worker already holding their modules",
        ).inc()
        if best_name != prefs[0]:
            self.metrics.counter(
                "cluster_residency_over_ring_total",
                "residency placements that overrode the hash-ring home",
            ).inc()
        return self.workers[best_name]

    def _routable(self, name: str) -> bool:
        health = self.monitor.workers.get(name)
        return health is not None and health.state == UP

    def _make_resolver(self, owner: str):
        """Peer candidates for ``owner``'s miss fetcher: the module's
        schema home first (that's where its encodings concentrate), then
        every other fetchable worker."""

        def resolver(key) -> list[tuple[str, tuple[str, int]]]:
            ordered: list[str] = []
            if self.ring.nodes:
                ordered.extend(self.ring.preference_list(key.schema))
            for name in self.workers:
                if name not in ordered:
                    ordered.append(name)
            out = []
            for name in ordered:
                if name == owner:
                    continue
                health = self.monitor.workers.get(name)
                if health is None or not health.fetchable:
                    continue
                out.append((name, self.workers[name].exporter.address))
            return out

        return resolver

    # -- serving -----------------------------------------------------------------

    async def serve(self, prompt: str, **kwargs):
        """Submit ``prompt`` to its placed worker and await the result,
        failing over to the next preference when a worker dies under it.

        Admission rejections (``Overloaded``, PML errors, deadline
        expiry) propagate: they are end-to-end answers, not failures of a
        particular worker.
        """
        parsed = parse_prompt(prompt)
        return await self._serve_placed(
            routing_key(parsed),
            lambda worker: worker.server.submit(prompt, **kwargs),
            resident_tags=module_tags(parsed),
        )

    async def serve_text(self, text: str, **kwargs):
        """Raw-text analogue of :meth:`serve`: place by discovered-prefix
        affinity, submit via ``LiveServer.submit_text``, fail over the
        same way. Discovery state is per-worker; a failover target simply
        mines the prefix itself from the re-placed traffic."""
        return await self._serve_placed(
            self.route_key_text(text),
            lambda worker: worker.server.submit_text(text, **kwargs),
        )

    async def _serve_placed(self, key: str, submit, resident_tags=None):
        tried: set[str] = set()
        while True:
            worker = self.pick_worker(key, exclude=tried, resident_tags=resident_tags)
            if worker is None:
                raise NoWorkerAvailable(
                    f"no healthy worker for {key!r} (tried {sorted(tried)})"
                )
            try:
                request = await submit(worker)
            except ServerClosed:
                # Lost a race with death/drain; never occupied a slot.
                tried.add(worker.name)
                continue
            self.metrics.counter(
                "cluster_requests_total", "requests placed, by worker",
                worker=worker.name,
            ).inc()
            try:
                return await request.wait()
            except ServerClosed:
                # The worker died with this request queued. It never ran:
                # re-placing it elsewhere cannot double-execute, and the
                # deterministic engine makes the retry byte-identical.
                tried.add(worker.name)
                self.metrics.counter(
                    "cluster_failover_total",
                    "requests re-placed after their worker died",
                ).inc()

    # -- failure handling --------------------------------------------------------

    async def _watchdog(self) -> None:
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            for name in self.monitor.sweep():
                await self._handle_death(name)

    async def _handle_death(self, name: str) -> None:
        """Remove a dead worker from the ring and release its queue."""
        if name in self.ring.nodes:
            self.ring.remove(name)
            self.metrics.counter(
                "cluster_rebalance_total", "ring rebalances after worker death"
            ).inc()
        worker = self.workers.get(name)
        if worker is not None and not worker._killed:
            # Missed heartbeats with the process still around (hung loop,
            # test-induced silence): finish the kill so queued requests
            # fail fast and their waiters re-place them.
            await worker.kill()

    async def kill_worker(self, name: str) -> None:
        """Induce a worker death (tests, chaos drills): abrupt stop, dead
        in the monitor, ring rebalanced, queued requests released to
        fail over."""
        worker = self.workers[name]
        await worker.kill()
        self.monitor.declare_dead(name, reason="killed")
        await self._handle_death(name)

    # -- observability -----------------------------------------------------------

    def refresh_cluster_gauges(self) -> None:
        """Mirror per-worker state and rolled-up plane counters into the
        router registry (same pattern as ``LiveServer.refresh_store_gauges``)."""
        for name, worker in self.workers.items():
            health = self.monitor.workers.get(name)
            state = health.state if health is not None else "unknown"
            self.metrics.gauge(
                "cluster_worker_queue_depth", "per-worker admission queue depth",
                worker=name,
            ).set(worker.server.queue_depth)
            self.metrics.gauge(
                "cluster_worker_up", "1 if the worker is routable",
                worker=name,
            ).set(1.0 if state == UP else 0.0)
        for family, label_names, values in _AGGREGATED_COUNTERS:
            label = label_names[0]
            for value in values:
                total = sum(
                    w.metrics.counter(family, **{label: value}).value
                    for w in self.workers.values()
                )
                self.metrics.gauge(
                    family, f"cluster-wide rollup of {family}", **{label: value}
                ).set(total)
        for family in _AGGREGATED_SCALARS:
            total = sum(w.metrics.counter(family).value for w in self.workers.values())
            self.metrics.gauge(family, f"cluster-wide rollup of {family}").set(total)

    def snapshot(self) -> dict:
        """Cluster-wide JSON snapshot: router rollups + per-worker detail."""
        self.refresh_cluster_gauges()
        return {
            "router": self.metrics.snapshot(),
            "workers": {
                name: worker.stats()
                for name, worker in self.workers.items()
                if not worker._killed
            },
            "health": {
                name: {
                    "state": h.state,
                    "queue_depth": h.queue_depth,
                    "beats": h.beats,
                    "resident": len(h.resident),
                }
                for name, h in self.monitor.workers.items()
            },
            "ring": self.ring.ownership_share(),
        }

    def prometheus(self) -> str:
        self.refresh_cluster_gauges()
        return self.metrics.to_prometheus()

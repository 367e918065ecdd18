"""One cluster worker: a serving engine plus its distribution-plane ends.

A :class:`ClusterWorker` owns a private :class:`PromptCache` (own
module store, own metrics registry) wrapped in a
:class:`~repro.server.runtime.LiveServer`, an exporter serving its
encoded modules to peers, and a fetcher pulling missing modules *from*
peers. The glue is the store's get-or-fetch hook: when the engine misses
a module in the local store, the hook asks the key's likely holders for
the encoded states before falling back to a local re-encode. A
successful peer fetch books the avoided prefill in
``cluster_reencode_avoided_tokens_total`` — the cluster's headline win.

Workers serve through the iteration-level scheduler: each
worker interleaves prefill chunks and batched decode steps across its
in-flight requests, so a peer-fetch stall on one request's modules
never blocks decode progress for the others already running.

Threading shape: the engine runs scheduler iterations on the server's
engine thread, so the miss hook fires *off* the event loop; it bridges
back with ``run_coroutine_threadsafe`` and blocks, for at most
``FETCH_BUDGET_S``, on the transfer. The loop stays free to run the
fetch, the exporter, and heartbeats. A miss on the loop thread itself
gets no peer fetch: the hook declines rather than deadlock the loop
that must run it.

A worker's engine stores module K/V as computed, so that is what
travels between workers.

Workers share the (read-only) model weights in-process but never share
stores — the point is to exercise the cross-store distribution plane.
"""

from __future__ import annotations

import asyncio
import threading

from repro.analysis.locks import assert_unheld
from repro.cache.engine import PromptCache
from repro.cache.persist import observe_residency
from repro.cache.storage import CacheKey, CapacityError, ModuleCacheStore
from repro.cluster.exporter import CacheExporter
from repro.cluster.fetcher import FetchFailed, PeerFetcher
from repro.cluster.health import DEAD, DRAINING, UP
from repro.server.metrics import MetricsRegistry
from repro.server.runtime import LiveServer, ServeOptions

MAX_FETCH_PEERS = 3  # likely holders asked, in ring order, per miss
FETCH_BUDGET_S = 10.0  # how long the engine thread waits on one miss
RESIDENCY_TAG_LIMIT = 256  # module tags one heartbeat advertises


class ClusterWorker:
    """A named serving worker participating in the module-KV plane."""

    def __init__(
        self,
        name: str,
        model,
        tokenizer,
        template=None,
        options: ServeOptions | None = None,
        store: ModuleCacheStore | None = None,
        exporter_host: str = "127.0.0.1",
        exporter_port: int = 0,
        fetcher: PeerFetcher | None = None,
        heartbeat_interval_s: float = 0.05,
        discovery=None,
    ) -> None:
        self.name = name
        self.metrics = MetricsRegistry()
        # A ``store`` built with ``snapshot_dir`` attaches a snapshot: its
        # catalog pages modules in on demand, each a read-only mapping, so
        # N same-host workers on one directory share one resident copy.
        self.store = store or ModuleCacheStore()
        self.pc = PromptCache(model, tokenizer, store=self.store, template=template)
        # Reuse discovery is per-worker: each miner sees only the raw
        # traffic routed here, which is why the router's raw placement is
        # prefix-affine — repeats must land together to promote.
        if discovery is not None:
            config = None if discovery is True else discovery
            self.pc.attach_discovery(config)
        self.server = LiveServer(self.pc, options, metrics=self.metrics)
        self.exporter = CacheExporter(
            self.store,
            metrics=self.metrics,
            host=exporter_host,
            port=exporter_port,
            health_snapshot=self._health_snapshot,
            stats_snapshot=self.stats,
        )
        self.fetcher = fetcher or PeerFetcher(metrics=self.metrics)
        self.heartbeat_interval_s = heartbeat_interval_s
        # Installed by the router: key -> [(peer name, (host, port))] in
        # preference order, self excluded. None = no distribution plane.
        self.peer_resolver = None
        # Called every heartbeat with (name, state, queue_depth).
        self.heartbeat_sink = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: int | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._killed = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def state(self) -> str:
        if self._killed or not self.server._running and self._loop is not None:
            return DEAD
        if self.server.draining:
            return DRAINING
        return UP

    async def start(self) -> "ClusterWorker":
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        await self.exporter.start()
        await self.server.start()
        self.store.set_miss_fetcher(self._miss_fetch)
        # Predictive peer pulls ride the same plane as the miss hook, but
        # fire-and-forget on the loop.
        self.store.peer_prefetch = self._peer_prefetch
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        self._beat()
        if self.store.snapshot_dir is not None:
            # Page-ins check sparse digests; the full ones run here, off
            # the serving path, over every cataloged payload.
            threading.Thread(
                target=self.store.verify_catalog,
                name=f"{self.name}-digest-sweep",
                daemon=True,
            ).start()
        return self

    async def stop(self, drain: bool = True) -> None:
        """Graceful stop: drain accepted work (exporter keeps serving the
        KV plane throughout, so rebalanced keys can still warm up from
        us), then leave."""
        self._beat(state=DRAINING if drain else DEAD)
        await self.server.stop(drain=drain)
        await self._teardown()

    async def kill(self) -> None:
        """Abrupt death (test harness / induced failure): queued requests
        fail immediately with ``ServerClosed`` — their routers fail them
        over — and the exporter vanishes mid-conversation."""
        self._killed = True
        await self.exporter.stop()
        await self.server.stop(drain=False)
        await self._teardown()

    async def _teardown(self) -> None:
        self._killed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass  # expected: we cancelled it
            self._heartbeat_task = None
        self.store.set_miss_fetcher(None)
        await self.exporter.stop()
        self._beat(state=DEAD)

    # -- schemas -----------------------------------------------------------------

    def register_schema(self, source, eager: bool = False):
        """Register a schema on this worker. Default **lazy**: in a
        cluster, modules are encoded where their requests land (or
        peer-fetched), not eagerly on every worker — eager-everywhere
        would duplicate the very prefill work the plane exists to share.
        """
        return self.pc.register_schema(source, eager=eager)

    def stats(self) -> dict:
        """This worker's JSON metrics snapshot. With a snapshot attached,
        the mapped/resident byte gauges are refreshed here, per scrape —
        the residency probe walks every mapped arena, too much for the
        server's per-completion refresh."""
        if self.store.snapshot_dir is not None:
            observe_residency(self.store, self.metrics)
        return self.server.snapshot()

    # -- heartbeats ---------------------------------------------------------------

    def _health_snapshot(self) -> dict:
        return {
            "state": self.state,
            "queue_depth": self.server.queue_depth,
            # Scheduler occupancy: how many sequences this worker is
            # actively decoding — routers can weigh it alongside queue
            # depth when placing latency-sensitive traffic.
            "inflight": self.server.inflight,
            "resident_modules": len(self._residency_tags()),
        }

    def _residency_tags(self) -> list[str]:
        """Module tags this worker can serve without re-encoding, for the
        heartbeat's residency advertisement: both resident tiers, then the
        snapshot catalog (mapped counts as near-resident)."""
        return self.store.residency_tags(limit=RESIDENCY_TAG_LIMIT)

    def _beat(self, state: str | None = None) -> None:
        sink = self.heartbeat_sink
        if sink is not None:
            sink(
                self.name,
                state or self.state,
                self.server.queue_depth,
                self._residency_tags(),
            )

    async def _heartbeat_loop(self) -> None:
        while True:
            self._beat()
            await asyncio.sleep(self.heartbeat_interval_s)

    # -- the get-or-fetch hook -----------------------------------------------------

    def _miss_fetch(self, key: CacheKey):
        """Store miss hook (runs on the engine's executor thread)."""
        # The store deliberately calls miss fetchers *outside* its lock;
        # blocking on a network future under it would stall every tier.
        assert_unheld("store")
        loop, resolver = self._loop, self.peer_resolver
        if loop is None or resolver is None or self._killed:
            return None
        if threading.get_ident() == self._loop_thread:
            # Called on the event loop: blocking here would deadlock the
            # very loop that must run the fetch.
            return None
        future = asyncio.run_coroutine_threadsafe(self._fetch_from_peers(key), loop)
        try:
            return future.result(timeout=FETCH_BUDGET_S)
        except (asyncio.TimeoutError, TimeoutError):
            future.cancel()
            self._count_plane("budget_exhausted")
            return None
        except RuntimeError:
            # Loop shut down while we were waiting (worker killed).
            return None

    async def _fetch_from_peers(self, key: CacheKey):
        candidates = self.peer_resolver(key) if self.peer_resolver else []
        for peer_name, address in candidates[:MAX_FETCH_PEERS]:
            try:
                kv = await self.fetcher.fetch(address, key)
            except FetchFailed:
                self._count_plane("peer_unreachable")
                continue
            if kv is not None:
                self.metrics.counter(
                    "cluster_reencode_avoided_tokens_total",
                    "module tokens obtained from peers instead of re-encoding",
                ).inc(len(kv))
                self.metrics.counter(
                    "cluster_peer_modules_total",
                    "modules obtained from each peer",
                    peer=peer_name,
                ).inc()
                return kv
        return None

    def _peer_prefetch(self, key: CacheKey) -> bool:
        """Store prefetch hook (engine/executor thread): schedule a
        fire-and-forget peer pull on the loop. Unlike :meth:`_miss_fetch`
        nothing waits on the result — a prefetch that loses the race to
        the demand fetch is merely redundant."""
        loop, resolver = self._loop, self.peer_resolver
        if loop is None or resolver is None or self._killed:
            return False
        try:
            asyncio.run_coroutine_threadsafe(self._prefetch_from_peers(key), loop)
        except RuntimeError:
            return False  # loop already closed (worker stopping)
        return True

    async def _prefetch_from_peers(self, key: CacheKey) -> None:
        kv = await self._fetch_from_peers(key)
        if kv is None:
            return
        try:
            # Prefetches land in DRAM; demand promotes them up later.
            self.store.put(key, kv, tier="cpu")
        except CapacityError:
            return  # larger than the whole DRAM tier
        self.metrics.counter(
            "cluster_peer_prefetch_total",
            "modules pulled from peers ahead of predicted demand",
        ).inc()

    def _count_plane(self, outcome: str) -> None:
        self.metrics.counter(
            "cluster_plane_misses_total",
            "get-or-fetch hook outcomes that fell back to re-encode",
            outcome=outcome,
        ).inc()

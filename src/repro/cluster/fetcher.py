"""Peer-side module-KV fetching: the consumer half of the distribution plane.

``PeerFetcher.fetch`` pulls one encoded module from a peer's
:class:`~repro.cluster.exporter.CacheExporter` with the robustness a
flaky network demands:

- **timeout** per attempt (connect + transfer);
- **retry with exponential backoff** on connection failures and
  timeouts — a worker that is briefly unreachable (GC pause, restart)
  should not force a re-encode;
- **singleflight** dedup: concurrent fetches for the same ``(peer, key)``
  share one wire transfer (the first caller's), so a burst of requests
  missing the same module costs one round-trip, not N.

``fetch`` returns the module's :class:`ModuleKV` on success and ``None``
on a definitive miss (peer does not hold the key); it raises
:class:`FetchFailed` when every attempt errored — the caller decides
whether to re-encode locally.
"""

from __future__ import annotations

import asyncio

from repro.cache.storage import CacheKey
from repro.cluster import wire
from repro.server.metrics import MetricsRegistry


class FetchFailed(Exception):
    """Every attempt to reach the peer failed (network or protocol)."""

    def __init__(self, key: CacheKey, peer: tuple[str, int], attempts: int, last: str) -> None:
        self.key = key
        self.peer = peer
        self.attempts = attempts
        super().__init__(
            f"fetch of {key.tag()} from {peer[0]}:{peer[1]} failed after "
            f"{attempts} attempt(s): {last}"
        )


class PeerFetcher:
    """Fetch encoded modules from peer exporters, politely but firmly."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        timeout_s: float = 2.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        # Singleflight table: (host, port, key) -> Future shared by every
        # concurrent caller. Event-loop-confined, so no lock.
        self._inflight: dict[tuple, asyncio.Future] = {}

    async def fetch(self, peer: tuple[str, int], key: CacheKey):
        """Module KV from ``peer``, or ``None`` if the peer lacks it.

        Raises :class:`FetchFailed` when the peer could not be reached
        within the retry budget.
        """
        flight_key = (peer[0], peer[1], key)
        existing = self._inflight.get(flight_key)
        if existing is not None:
            self._count("deduped")
            return await asyncio.shield(existing)
        future = asyncio.get_running_loop().create_future()
        self._inflight[flight_key] = future
        try:
            result = await self._fetch_with_retries(peer, key)
            future.set_result(result)
            return result
        except BaseException as exc:
            future.set_exception(exc)
            # A dedup waiter may never await it; mark retrieved.
            future.exception()
            raise
        finally:
            del self._inflight[flight_key]

    async def _fetch_with_retries(self, peer: tuple[str, int], key: CacheKey):
        delay = self.backoff_s
        last_error = "no attempts made"
        start = asyncio.get_running_loop().time()
        for attempt in range(1 + self.retries):
            if attempt:
                await asyncio.sleep(delay)
                delay *= self.backoff_factor
            try:
                kv = await asyncio.wait_for(
                    self._fetch_once(peer, key), self.timeout_s
                )
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, wire.WireError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                self._count("retry" if attempt < self.retries else "error")
                continue
            elapsed = asyncio.get_running_loop().time() - start
            self.metrics.histogram(
                "cluster_peer_fetch_seconds", "wall time per peer fetch"
            ).observe(elapsed)
            if kv is None:
                self._count("miss")
                return None
            self._count("hit")
            self.metrics.counter(
                "cluster_fetch_bytes_total", "module-KV bytes fetched from peers"
            ).inc(kv.nbytes())
            return kv
        raise FetchFailed(key, peer, 1 + self.retries, last_error)

    async def _fetch_once(self, peer: tuple[str, int], key: CacheKey):
        reader, writer = await asyncio.open_connection(peer[0], peer[1])
        try:
            writer.write(wire.pack_get(key))
            await writer.drain()
            msg_type, payload = await wire.read_frame(reader)
            if msg_type == wire.MSG_NOT_FOUND:
                return None
            if msg_type == wire.MSG_ERROR:
                raise wire.WireError(wire.decode_json(payload).get("error", "peer error"))
            if msg_type != wire.MSG_META:
                raise wire.WireError(f"expected META, got message type {msg_type}")
            meta = wire.decode_json(payload)
            body = bytearray()
            total = int(meta["total_bytes"])
            while True:
                msg_type, payload = await wire.read_frame(reader)
                if msg_type == wire.MSG_CHUNK:
                    body.extend(payload)
                    if len(body) > total:
                        raise wire.WireError(
                            f"peer streamed {len(body)} bytes, header declared {total}"
                        )
                    continue
                if msg_type == wire.MSG_END:
                    break
                raise wire.WireError(f"expected CHUNK/END, got message type {msg_type}")
            return wire.deserialize_module(meta, body)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # connection already torn down

    def _count(self, outcome: str) -> None:
        self.metrics.counter(
            "cluster_peer_fetch_total", "peer fetch attempts by outcome",
            outcome=outcome,
        ).inc()

"""Per-worker module-KV export service.

Each cluster worker runs one :class:`CacheExporter`: a small asyncio TCP
server speaking :mod:`repro.cluster.wire`. Peers GET modules by
``(schema, module, variant)``; the exporter serves them straight from
the worker's :class:`~repro.cache.storage.ModuleCacheStore` — ``peek``,
not ``fetch``, so export traffic neither skews the store's hit/recency
statistics nor recurses into the worker's *own* miss fetcher (which
would bounce a miss around the cluster).

The exporter also answers PING (liveness + queue depth, for remote
health probes) and STATS (the worker's JSON metrics snapshot, which the
router aggregates), and it keeps serving while its worker drains — a
draining worker's modules remain fetchable until it actually exits, so
rebalanced keys warm their new home cheaply.
"""

from __future__ import annotations

import asyncio

from repro.cache.storage import ModuleCacheStore
from repro.cluster import wire
from repro.server.metrics import MetricsRegistry


class CacheExporter:
    """Serve this worker's encoded modules to cluster peers."""

    def __init__(
        self,
        store: ModuleCacheStore,
        metrics: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_size: int = wire.DEFAULT_CHUNK_SIZE,
        health_snapshot=None,
        stats_snapshot=None,
    ) -> None:
        self.store = store
        self.metrics = metrics or MetricsRegistry()
        self.host = host
        self.port = port  # 0 = ephemeral; resolved by start()
        self.chunk_size = chunk_size
        # Zero-arg callables supplying PONG / STATS payloads; the worker
        # wires these to its health state and metrics snapshot.
        self.health_snapshot = health_snapshot or (lambda: {"state": "up", "queue_depth": 0})
        self.stats_snapshot = stats_snapshot or (lambda: {})
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> tuple[str, int]:
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    msg_type, payload = await wire.read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # peer hung up between requests
                except wire.WireError as exc:
                    writer.write(wire.pack_json(wire.MSG_ERROR, {"error": str(exc)}))
                    await writer.drain()
                    return
                if msg_type == wire.MSG_GET:
                    await self._serve_get(writer, payload)
                elif msg_type == wire.MSG_PING:
                    writer.write(wire.pack_json(wire.MSG_PONG, self.health_snapshot()))
                    await writer.drain()
                elif msg_type == wire.MSG_STATS:
                    writer.write(
                        wire.pack_json(wire.MSG_STATS_REPLY, self.stats_snapshot())
                    )
                    await writer.drain()
                else:
                    writer.write(
                        wire.pack_json(
                            wire.MSG_ERROR,
                            {"error": f"unexpected message type {msg_type}"},
                        )
                    )
                    await writer.drain()
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # peer already gone; nothing left to flush

    async def _serve_get(self, writer, payload: bytes) -> None:
        try:
            key = wire.key_from_request(payload)
        except wire.WireError as exc:
            writer.write(wire.pack_json(wire.MSG_ERROR, {"error": str(exc)}))
            await writer.drain()
            return
        entry = self.store.peek(key)
        if entry is None:
            self._count_request("not_found")
            writer.write(wire.pack_frame(wire.MSG_NOT_FOUND))
            await writer.drain()
            return
        try:
            module = wire.serialize_module(key, entry.kv)
        except wire.WireError as exc:  # stand-ins and codec payloads do not travel
            self._count_request("unserializable")
            writer.write(wire.pack_json(wire.MSG_ERROR, {"error": str(exc)}))
            await writer.drain()
            return
        writer.write(wire.pack_json(wire.MSG_META, module.meta))
        sent = 0
        for chunk in wire.iter_chunks(module, self.chunk_size):
            # Header and payload written separately: the chunk memoryview
            # goes to the transport without an intermediate join.
            writer.write(wire.pack_header(wire.MSG_CHUNK, len(chunk)))
            writer.write(chunk)
            sent += len(chunk)
            await writer.drain()
        writer.write(wire.pack_json(wire.MSG_END, {"checksum": module.meta["checksum"]}))
        await writer.drain()
        self._count_request("served")
        self.metrics.counter(
            "cluster_export_bytes_total", "module-KV bytes served to peers"
        ).inc(sent)

    def _count_request(self, outcome: str) -> None:
        self.metrics.counter(
            "cluster_export_requests_total", "peer GET requests by outcome",
            outcome=outcome,
        ).inc()

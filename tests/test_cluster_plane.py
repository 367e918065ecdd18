"""Distribution plane: exporter + fetcher over real loopback sockets."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.cluster import wire
from repro.cluster.exporter import CacheExporter
from repro.cluster.fetcher import FetchFailed, PeerFetcher
from repro.server.metrics import MetricsRegistry

from tests.test_cluster_wire import make_module_kv


def run(coro):
    return asyncio.run(coro)


KEY = CacheKey("plane", "ctx")


def make_exporter(**kwargs):
    store = ModuleCacheStore()
    store.put(KEY, make_module_kv(tokens=9, seed=7))
    return store, CacheExporter(store, metrics=MetricsRegistry(), **kwargs)


class TestExporterFetcher:
    def test_fetch_hit_round_trips(self):
        async def scenario():
            store, exporter = make_exporter(chunk_size=128)
            address = await exporter.start()
            fetcher = PeerFetcher(metrics=MetricsRegistry())
            try:
                kv = await fetcher.fetch(address, KEY)
            finally:
                await exporter.stop()
            return store, fetcher, kv

        store, fetcher, kv = run(scenario())
        original = store.peek(KEY).kv
        np.testing.assert_array_equal(kv.positions, original.positions)
        np.testing.assert_array_equal(kv.keys[0], original.keys[0])
        snap = fetcher.metrics.snapshot()["counters"]
        assert snap['cluster_peer_fetch_total{outcome="hit"}'] == 1

    def test_fetch_miss_returns_none(self):
        async def scenario():
            _, exporter = make_exporter()
            address = await exporter.start()
            fetcher = PeerFetcher(metrics=MetricsRegistry())
            try:
                kv = await fetcher.fetch(address, CacheKey("plane", "absent"))
            finally:
                await exporter.stop()
            return fetcher, kv

        fetcher, kv = run(scenario())
        assert kv is None
        snap = fetcher.metrics.snapshot()["counters"]
        assert snap['cluster_peer_fetch_total{outcome="miss"}'] == 1
        assert "cluster_fetch_bytes_total" not in snap

    def test_singleflight_dedups_concurrent_fetches(self):
        async def scenario():
            _, exporter = make_exporter()
            address = await exporter.start()
            fetcher = PeerFetcher(metrics=MetricsRegistry())
            try:
                results = await asyncio.gather(
                    *(fetcher.fetch(address, KEY) for _ in range(8))
                )
            finally:
                await exporter.stop()
            return exporter, fetcher, results

        exporter, fetcher, results = run(scenario())
        assert all(kv is not None for kv in results)
        served = exporter.metrics.snapshot()["counters"][
            'cluster_export_requests_total{outcome="served"}'
        ]
        # One wire transfer; everyone else waited on the shared flight.
        assert served == 1
        snap = fetcher.metrics.snapshot()["counters"]
        assert snap['cluster_peer_fetch_total{outcome="hit"}'] == 1
        assert snap['cluster_peer_fetch_total{outcome="deduped"}'] == 7

    def test_unreachable_peer_retries_then_fails(self):
        async def scenario():
            fetcher = PeerFetcher(
                metrics=MetricsRegistry(), timeout_s=0.2, retries=2,
                backoff_s=0.01,
            )
            with pytest.raises(FetchFailed) as info:
                # A port nothing listens on: connection refused each try.
                await fetcher.fetch(("127.0.0.1", 1), KEY)
            return fetcher, info.value

        fetcher, error = run(scenario())
        assert error.attempts == 3
        snap = fetcher.metrics.snapshot()["counters"]
        assert snap['cluster_peer_fetch_total{outcome="retry"}'] == 2
        assert snap['cluster_peer_fetch_total{outcome="error"}'] == 1

    def test_an_attempt_overrunning_in_the_payload_check_is_a_timeout(
        self, monkeypatch
    ):
        """The payload check runs synchronously on the loop, where
        ``wait_for`` cannot fire: an attempt that returns past its
        deadline is still a timeout, not a hit."""
        import time

        deserialize = wire.deserialize_module

        def slow_deserialize(meta, body):
            time.sleep(0.3)
            return deserialize(meta, body)

        monkeypatch.setattr(wire, "deserialize_module", slow_deserialize)

        async def scenario():
            _, exporter = make_exporter()
            address = await exporter.start()
            fetcher = PeerFetcher(metrics=MetricsRegistry(), timeout_s=0.1, retries=0)
            try:
                with pytest.raises(FetchFailed) as info:
                    await fetcher.fetch(address, KEY)
            finally:
                await exporter.stop()
            return fetcher, info.value

        fetcher, error = run(scenario())
        assert error.attempts == 1 and "TimeoutError" in str(error)
        snap = fetcher.metrics.snapshot()["counters"]
        assert snap['cluster_peer_fetch_total{outcome="error"}'] == 1
        assert 'cluster_peer_fetch_total{outcome="hit"}' not in snap
        assert "cluster_fetch_bytes_total" not in snap

    def test_retry_recovers_after_peer_comes_back(self):
        async def scenario():
            store, exporter = make_exporter()
            fetcher = PeerFetcher(
                metrics=MetricsRegistry(), timeout_s=0.5, retries=3,
                backoff_s=0.05,
            )

            async def start_late():
                await asyncio.sleep(0.08)
                await exporter.start()

            # Reserve a fixed port first so the fetcher knows the target.
            await exporter.start()
            address = exporter.address
            await exporter.stop()
            exporter.port = address[1]
            late = asyncio.create_task(start_late())
            try:
                kv = await fetcher.fetch(address, KEY)
            finally:
                await late
                await exporter.stop()
            return kv

        assert run(scenario()) is not None

    def test_ping_and_stats(self):
        async def scenario():
            _, exporter = make_exporter(
                health_snapshot=lambda: {"state": "up", "queue_depth": 3},
                stats_snapshot=lambda: {"counters": {"x": 1}},
            )
            address = await exporter.start()
            reader, writer = await asyncio.open_connection(*address)
            try:
                writer.write(wire.pack_frame(wire.MSG_PING))
                await writer.drain()
                msg_type, payload = await wire.read_frame(reader)
                pong = (msg_type, wire.decode_json(payload))
                writer.write(wire.pack_frame(wire.MSG_STATS))
                await writer.drain()
                msg_type, payload = await wire.read_frame(reader)
                stats = (msg_type, wire.decode_json(payload))
            finally:
                writer.close()
                await writer.wait_closed()
                await exporter.stop()
            return pong, stats

        pong, stats = run(scenario())
        assert pong == (wire.MSG_PONG, {"state": "up", "queue_depth": 3})
        assert stats == (wire.MSG_STATS_REPLY, {"counters": {"x": 1}})

    def test_unexpected_message_type_errors(self):
        async def scenario():
            _, exporter = make_exporter()
            address = await exporter.start()
            reader, writer = await asyncio.open_connection(*address)
            try:
                writer.write(wire.pack_frame(wire.MSG_END))
                await writer.drain()
                msg_type, payload = await wire.read_frame(reader)
            finally:
                writer.close()
                await writer.wait_closed()
                await exporter.stop()
            return msg_type, wire.decode_json(payload)

        msg_type, payload = run(scenario())
        assert msg_type == wire.MSG_ERROR
        assert "unexpected" in payload["error"]

    def test_export_counters(self):
        async def scenario():
            _, exporter = make_exporter()
            address = await exporter.start()
            fetcher = PeerFetcher(metrics=MetricsRegistry())
            try:
                await fetcher.fetch(address, KEY)
                await fetcher.fetch(address, CacheKey("plane", "absent"))
            finally:
                await exporter.stop()
            return exporter

        exporter = run(scenario())
        counters = exporter.metrics.snapshot()["counters"]
        assert counters['cluster_export_requests_total{outcome="served"}'] == 1
        assert counters['cluster_export_requests_total{outcome="not_found"}'] == 1
        assert counters["cluster_export_bytes_total"] > 0

"""Graceful-drain semantics of ``LiveServer.stop(drain=True)``.

The SIGTERM contract: a draining server refuses new submissions with
:class:`ServerClosed` but completes everything already accepted — queued
*and* in flight — before ``stop`` returns. Also pins down the deadline
race: a request whose deadline expires while it sits behind a slow
request expires instead of running.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import DeadlineExceeded, LiveServer, ServeOptions, ServerClosed
from repro.server.request import DONE, EXPIRED

from tests.stubs import StubEngine
from tests.test_server_runtime import prompt, run


class TestDrain:
    def test_drain_completes_queued_and_inflight_work(self):
        async def main():
            engine = StubEngine(service_s=0.02)
            server = LiveServer(
                engine, ServeOptions(max_inflight=1, queue_delay_budget_s=None)
            )
            await server.start()
            requests = [await server.submit(prompt(i=i)) for i in range(4)]
            stop = asyncio.create_task(server.stop(drain=True))
            await asyncio.sleep(0)  # let the drain flag land
            assert server.draining
            with pytest.raises(ServerClosed, match="draining"):
                await server.submit(prompt(i=99))
            await stop
            return server, requests

        server, requests = run(main())
        # Every accepted request ran to completion before stop returned.
        assert [r.state for r in requests] == [DONE] * 4
        assert all(r.result is not None for r in requests)
        assert not server._running

    def test_drain_then_results_consumable_after_stop(self):
        async def main():
            engine = StubEngine(service_s=0.01)
            server = LiveServer(
                engine, ServeOptions(max_inflight=2, queue_delay_budget_s=None)
            )
            await server.start()
            requests = [await server.submit(prompt(i=i)) for i in range(3)]
            await server.stop(drain=True)
            # wait() after the fact must resolve, not hang or raise.
            return [await r.wait() for r in requests]

        results = run(main())
        assert [r.text for r in results] == ["ok"] * 3

    def test_non_drain_stop_fails_queued_requests(self):
        async def main():
            # One-token requests: each is served whole by one iteration.
            engine = StubEngine(service_s=0.05, tokens=lambda serial, budget: [1])
            server = LiveServer(
                engine, ServeOptions(max_inflight=1, queue_delay_budget_s=None)
            )
            await server.start()
            first = await server.submit(prompt(i=0))  # will be in flight
            queued = [await server.submit(prompt(i=i)) for i in range(1, 4)]
            await asyncio.sleep(0.01)  # worker dispatches the first iteration
            await server.stop(drain=False)
            outcomes = []
            for request in [first] + queued:
                try:
                    await request.wait()
                    outcomes.append("done")
                except ServerClosed:
                    outcomes.append("closed")
            return outcomes

        outcomes = run(main())
        # The iteration in flight finishes; the queue is failed fast.
        assert outcomes[0] == "done"
        assert outcomes[1:] == ["closed"] * 3

    def test_restart_after_drain_clears_draining(self):
        async def main():
            server = LiveServer(StubEngine())
            await server.start()
            await server.stop(drain=True)
            await server.start()
            assert not server.draining
            request = await server.submit(prompt())
            result = await request.wait()
            await server.stop()
            return result

        assert run(main()).text == "ok"


class TestDeadlineRace:
    def test_deadline_expiry_racing_batch_start(self):
        """A request whose deadline passes while an earlier request hogs
        the only decode slot must expire in the queue, not run late."""

        async def main():
            engine = StubEngine(service_s=0.08)
            server = LiveServer(
                engine,
                ServeOptions(max_inflight=1, queue_delay_budget_s=None),
            )
            await server.start()
            blocker = await server.submit(prompt(i=0))
            doomed = await server.submit(prompt(i=1), deadline_s=0.02)
            with pytest.raises(DeadlineExceeded):
                await doomed.wait()
            await blocker.wait()
            await server.stop()
            return engine, blocker, doomed

        engine, blocker, doomed = run(main())
        assert blocker.state == DONE
        assert doomed.state == EXPIRED
        # The expired request never reached the engine.
        assert prompt(i=1) not in engine.prompts()

    def test_deadline_expired_before_worker_wakes(self):
        async def main():
            server = LiveServer(StubEngine())
            await server.start()
            request = await server.submit(prompt(), deadline_s=0.0)
            with pytest.raises(DeadlineExceeded):
                await request.wait()
            await server.stop()
            return request

        assert run(main()).state == EXPIRED

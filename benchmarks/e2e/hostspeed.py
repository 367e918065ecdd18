"""How slow was the host while a window ran?

The host this benchmark was built on is a shared VM whose speed wanders
between 1.0x and 1.7x its best, for seconds or for minutes, and every
timing of every workload wanders with it: over ten runs the spread of an
uncorrected TTFT or goodput was 0.06 in a calm half hour and 0.30 in a
restless one. A fixed reference kernel — a dozen small matrix products
with a tanh between, numpy only, nothing of the repository — is queued
on the engine thread every 50 ms, between the server's own work items,
and its CPU time kept. A window's *slowdown* is the kernel's median time
inside the window over the time it takes on this host when quiet.
Timings are divided and rates multiplied by it, which removes a half to
two thirds of their run-to-run spread; the uncorrected values are
printed beside them.

On the engine thread, because that is the processor whose speed matters
and the kernel then finds the caches as the engine left them: the same
kernel on the event-loop thread tracked the engine's speed half as well.
A pure-interpreter loop and a 2 MB copy were tried as further parts of
the kernel and tracked worse than the matrix products alone. CPU time,
not wall time, so that the kernel is not charged for waiting.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's median CPU time on the host the benchmark was defined on,
# in its quiet state, on the engine thread between decode steps. It only
# fixes the scale: corrected values read as they would on that host.
QUIET_KERNEL_S = 0.5e-3

_A = np.random.default_rng(0).standard_normal((16, 256)).astype(np.float32)
_W = np.random.default_rng(1).standard_normal((256, 256)).astype(np.float32)


def reference_kernel() -> float:
    """CPU seconds of a fixed piece of numpy work shaped like a decode
    step of the small model: (16, 256) x (256, 256) products and an
    elementwise function, twelve times."""
    started = time.thread_time()
    x = _A
    for _ in range(12):
        x = np.tanh(x @ _W * 0.05)
    return time.thread_time() - started


class HostSpeed:
    """Samples the reference kernel on the loop's default executor — the
    engine thread — for as long as :meth:`run` is alive."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic time, cpu seconds)

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            cpu_s = await loop.run_in_executor(None, reference_kernel)
            self.samples.append((time.monotonic(), cpu_s))
            await asyncio.sleep(INTERVAL_S)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time inside ``[t0, t1]`` over its quiet-host time."""
        inside = [cpu_s for t, cpu_s in self.samples if t0 <= t <= t1]
        return statistics.median(inside) / QUIET_KERNEL_S

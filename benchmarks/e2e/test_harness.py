"""Tests of the benchmark harness itself (not part of tier-1).

    python3 -m pytest benchmarks/e2e -q

They check the measuring instruments — percentiles, seeded generation,
due-time accounting, span arithmetic — and that ``run.py --smoke`` runs
all four workloads end to end.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import loadgen
import stats
import tracepoints
import workloads

HERE = Path(__file__).resolve().parent


def _count_tokens(text: str) -> int:
    return len(text.split())  # generation only needs a deterministic measure


# -- percentiles -----------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert stats.percentile(range(200), 95) == pytest.approx(189.05)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(199), 95)
    assert stats.percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def test_slowdown_is_median_kernel_time_inside_the_window_over_quiet_time():
    host = hostspeed.HostSpeed()
    quiet = hostspeed.QUIET_KERNEL_S
    host.samples = [(0.5, 9 * quiet)] + [(1.0 + i, quiet * f) for i, f in enumerate((1.0, 1.5, 1.2))]
    assert host.slowdown(1.0, 3.0) == pytest.approx(1.2)
    assert 0 < hostspeed.reference_kernel() < 0.1


# -- seeded generation ------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_schedule_and_prompts(name):
    def generate(seed):
        workload = workloads.build(name, seed, _count_tokens)
        phases = [workloads.phase_requests(workload, phase, seed, 4.0) for phase in workload.phases]
        return [schema.source for schema in workload.schemas], phases

    assert generate(3) == generate(3)
    schemas_a, phases_a = generate(3)
    schemas_b, phases_b = generate(4)
    assert phases_a != phases_b
    for (requests, dues), phase in zip(phases_a, workloads.build(name, 3, _count_tokens).phases):
        numbers = [r.number for r in requests]
        assert numbers == sorted(set(numbers))
        if phase.mode == "open":
            assert len(dues) == len(requests) and dues == sorted(dues)


def test_second_part_of_a_phase_draws_other_requests():
    workload = workloads.build("mix", 0, _count_tokens)
    first, _ = workloads.phase_requests(workload, workload.phases[0], 0, 4.0)
    second, _ = workloads.phase_requests(workload, workload.phases[0], 0, 4.0, part=1)
    assert not {r.number for r in first} & {r.number for r in second}


def test_classes_are_dealt_in_exact_proportions():
    workload = workloads.build("mix", 1, _count_tokens)
    requests = workload.deal(workloads._rng(1, 7), 160, 0)
    assert sum(r.kind == "text" for r in requests) == 40
    assert sum(r.max_new_tokens == 64 for r in requests) == 32
    offsets = workloads.arrival_offsets(workloads._rng(1, 8), 16.0, 5.0)
    assert len(offsets) == 80
    assert all(sum(int(t) == s for t in offsets) == 16 for s in range(5))


# -- due-time accounting (no coordinated omission) ----------------------------------


class _StubHandle:
    def __init__(self, tokens):
        self._tokens = tokens

    async def stream(self):
        for token in self._tokens:
            yield token


class _StallingServer:
    """Serves one request at a time in 1 ms — except request 5, which
    holds the single server for 200 ms."""

    def __init__(self):
        self._lock = asyncio.Lock()

    async def submit(self, prompt, *, max_new_tokens, request_id):
        async with self._lock:
            await asyncio.sleep(0.2 if request_id == "r5" else 0.001)
        return _StubHandle([1, 2])

    submit_text = submit


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    requests = [workloads.Request(i, "pml", f"p{i}", 2) for i in range(12)]
    dues = [i * 0.01 for i in range(12)]
    result = asyncio.run(loadgen.run_open(_StallingServer(), requests, dues, warmup_s=0.0))
    ttft_ms = [(r.token_times[0] - r.due) * 1e3 for r in result.records]
    assert all(t < 50 for t in ttft_ms[:5])
    assert ttft_ms[5] >= 200
    # Requests 6.. were due during the stall: timed from their due time
    # they waited most of it, although each was served in a millisecond.
    assert ttft_ms[6] >= 150 and ttft_ms[8] >= 130
    assert all(r.sent - r.due < 0.05 for r in result.records)


def test_closed_loop_window_and_abandoned_requests():
    requests = [workloads.Request(i, "pml", f"p{i}", 2) for i in range(10_000)]
    result = asyncio.run(loadgen.run_closed(
        _StallingServer(), requests, clients=2, warmup_requests=4, seconds=0.3))
    assert result.t1 - result.t0 == pytest.approx(0.3, abs=0.05)
    counts = stats.counts(result)
    assert counts["failed"] == 0 and counts["timed"] == counts["succeeded"] > 0
    assert all(r.request.number >= 4 for r in stats.timed(result))


# -- span arithmetic ---------------------------------------------------------------


def _span(name, start, end, parent=None):
    return [name, start, end, parent, 1, None]


def test_self_time_is_duration_minus_children():
    root = _span("executor.task", 0, 100)
    iterate = _span("scheduler.iterate", 10, 90, root)
    decode = _span("llm.forward_decode_batch", 20, 60, iterate)
    sample = _span("llm.sample", 60, 65, iterate)
    fetch = _span("store.fetch", 30, 35, decode)
    own = tracepoints.self_times([fetch, decode, sample, iterate, root])
    assert own[id(root)] == 20
    assert own[id(iterate)] == 80 - 40 - 5
    assert own[id(decode)] == 40 - 5
    assert own[id(sample)] == 5 and own[id(fetch)] == 5
    assert sum(own.values()) == 100  # self times tile the root exactly


def test_tracer_wraps_and_restores_and_nests():
    class Store:
        def fetch(self, key):
            return None

        def put(self, key, kv):
            self.fetch(key)

    class Key:
        def tag(self):
            return "k"

    tracer = tracepoints.Tracer()
    original = Store.fetch
    table = [("Store", "fetch", "store.fetch", tracepoints._fetch, None),
             ("Store", "put", "store.put", tracepoints._put, None)]
    saved, tracepoints.TRACEPOINTS = tracepoints.TRACEPOINTS, table
    try:
        tracer.install({"Store": Store})
        Store().put(Key(), None)
    finally:
        tracer.uninstall()
        tracepoints.TRACEPOINTS = saved
    assert Store.fetch is original
    fetch, put = tracer.spans
    assert fetch[tracepoints.NAME] == "store.fetch" and fetch[tracepoints.PARENT] is put
    assert fetch[tracepoints.ATTRS] == {"key": "k", "source": "miss"}
    assert put[tracepoints.START] <= fetch[tracepoints.START] <= fetch[tracepoints.END] <= put[tracepoints.END]


# -- the whole thing -----------------------------------------------------------------


def test_smoke_runs_all_four_workloads(tmp_path):
    out = tmp_path / "smoke.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    runs = [json.loads(line) for line in out.read_text().splitlines()]
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {run["workload"] for run in runs if not run["trace"]} == set(workloads.NAMES)
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        listed = spec["per_layer"] if run["trace"] else spec["end_to_end"]
        assert {name: m["unit"] for name, m in run["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in listed}

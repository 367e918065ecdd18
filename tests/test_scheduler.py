"""Fleet scheduler: routing policies and cache-affinity behaviour."""

from __future__ import annotations

import pytest

from repro.hw.device import RTX_4090
from repro.llm.config import paper_config
from repro.serving.scheduler import FleetScheduler, ROUTING_POLICIES, compare_policies
from repro.serving.simulator import SimConfig
from repro.serving.traces import SchemaProfile, TraceRequest, synthesize_trace

LLAMA7B = paper_config("llama2-7b")


def config(mode="prompt-cache"):
    return SimConfig(model=LLAMA7B, device=RTX_4090, mode=mode,
                     gpu_capacity_bytes=20 * 10**9)


def request(i, arrival, schema):
    return TraceRequest(
        request_id=i, arrival_s=arrival, schema=schema,
        cached_tokens=3000, uncached_tokens=100, decode_tokens=4,
    )


class TestRouting:
    def test_round_robin_cycles(self):
        scheduler = FleetScheduler(config(), n_servers=3, policy="round-robin")
        trace = [request(i, float(i) * 100, "s0") for i in range(6)]
        report = scheduler.run(trace)
        per_server = [len(s.outcomes) for s in report.servers]
        assert per_server == [2, 2, 2]

    def test_least_loaded_balances(self):
        scheduler = FleetScheduler(config(), n_servers=2, policy="least-loaded")
        trace = [request(i, 0.0, f"s{i}") for i in range(4)]  # all at once
        report = scheduler.run(trace)
        per_server = [len(s.outcomes) for s in report.servers]
        assert per_server == [2, 2]

    def test_affinity_pins_schema_to_home(self):
        scheduler = FleetScheduler(config(), n_servers=4, policy="affinity")
        trace = [request(i, float(i) * 100, "hot-schema") for i in range(5)]
        report = scheduler.run(trace)
        non_empty = [s for s in report.servers if s.outcomes]
        assert len(non_empty) == 1  # no queueing -> everything at home

    def test_affinity_spills_under_pressure(self):
        scheduler = FleetScheduler(
            config(), n_servers=2, policy="affinity", spill_queue_s=0.5
        )
        # A burst at t=0: the home queue exceeds the spill threshold.
        trace = [request(i, 0.0, "hot-schema") for i in range(6)]
        report = scheduler.run(trace)
        non_empty = [s for s in report.servers if s.outcomes]
        assert len(non_empty) == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            FleetScheduler(config(), n_servers=2, policy="random")


class TestAffinityEncodes:
    def test_affinity_encodes_once_per_schema(self):
        profiles = [SchemaProfile(f"s{i}", 3000, 100, 4, 1.0) for i in range(8)]
        trace = synthesize_trace(profiles, 1.0, 100, seed=0)
        reports = compare_policies(trace, config(), n_servers=4)
        schemas_seen = len({r.schema for r in trace})
        assert reports["affinity"].total_encodes == schemas_seen
        # Oblivious policies re-encode on multiple servers.
        assert reports["round-robin"].total_encodes > 1.5 * schemas_seen
        assert reports["least-loaded"].total_encodes > 1.5 * schemas_seen

    def test_baseline_mode_indifferent_to_policy(self):
        profiles = [SchemaProfile(f"s{i}", 2000, 100, 4, 1.0) for i in range(4)]
        trace = synthesize_trace(profiles, 0.5, 60, seed=1)
        reports = compare_policies(trace, config(mode="baseline"), n_servers=2)
        for report in reports.values():
            assert report.total_encodes == 0

    def test_fleet_report_metrics(self):
        trace = [request(i, float(i), "s0") for i in range(5)]
        report = FleetScheduler(config(), n_servers=2).run(trace)
        assert report.mean_ttft_s > 0
        assert report.ttft_percentile(50) <= report.ttft_percentile(95)

"""Trace synthesis: Poisson arrivals, popularity skew, seeded determinism."""

from __future__ import annotations

import numpy as np

from repro.serving import SchemaProfile, poisson_arrivals, synthesize_trace


def profiles(n_schemas: int = 8) -> list[SchemaProfile]:
    """~5K-token document contexts, ~100-token directives (a few
    300-token heavies), Zipf(1) popularity."""
    return [
        SchemaProfile(
            name=f"schema{i}",
            module_tokens=5000,
            uncached_mean=100 if i % 4 else 300,
            decode_mean=64,
            weight=1.0 / (i + 1),
        )
        for i in range(n_schemas)
    ]


class TestTraces:
    def test_poisson_rate_roughly_matches(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(5.0, 200.0, rng)
        assert 800 < len(times) < 1200
        assert all(t < 200.0 for t in times)
        assert times == sorted(times)

    def test_trace_deterministic(self):
        a = synthesize_trace(profiles(), 1.0, 60, seed=3)
        b = synthesize_trace(profiles(), 1.0, 60, seed=3)
        assert a == b

    def test_seeded_trace_is_pinned(self):
        """The RNG draws keep their order (arrival, schema, then cached,
        uncached and decode jitter), so a seed names one trace for good:
        the load generators' arrival streams depend on it."""
        trace = synthesize_trace(profiles(), 1.0, 60, seed=3)
        assert len(trace) == 56
        assert round(trace[0].arrival_s, 6) == 0.110015
        assert [
            (r.schema, r.cached_tokens, r.uncached_tokens, r.decode_tokens)
            for r in trace[:3]
        ] == [
            ("schema1", 3753, 106, 67),
            ("schema3", 5030, 90, 68),
            ("schema0", 4542, 321, 71),
        ]

    def test_popularity_skew(self):
        pool = profiles(n_schemas=4)
        trace = synthesize_trace(pool, 20.0, 100, seed=0)
        counts = {p.name: 0 for p in pool}
        for r in trace:
            counts[r.schema] += 1
        assert counts["schema0"] > counts["schema3"]

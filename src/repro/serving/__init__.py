"""Serving workloads: seeded request traces over a pool of schemas, the
arrival streams the live server's load generators replay."""

from repro.serving.traces import (
    SchemaProfile,
    TraceRequest,
    poisson_arrivals,
    synthesize_trace,
)

__all__ = ["TraceRequest", "SchemaProfile", "poisson_arrivals", "synthesize_trace"]

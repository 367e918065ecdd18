"""Output check and digest.

Correctness is a check, not a metric: a sample of the requests the server
streamed is recomputed on a fresh engine — plain unbounded store, no
discovery, whole-request ``serve`` / ``serve_text`` — and the token ids
must be equal. ``tier_churn`` is thereby compared against an
unconstrained store, and raw requests against a discovery-free engine.
"""

from __future__ import annotations

import hashlib

import stats
import sut

CHECKED = 32  # requests recomputed per run
DIGESTED = 64  # leading timed requests of each phase folded into the digest


def sample(records: list, count: int) -> list:
    """``count`` records evenly spaced over ``records``."""
    if len(records) <= count:
        return list(records)
    step = len(records) / count
    return [records[int(i * step)] for i in range(count)]


def check_outputs(workload, results, count: int = CHECKED) -> dict:
    """Recompute ``count`` completed timed requests across the phases.
    Returns ``{"checked", "mismatched": [request numbers]}``."""
    completed = [r for result in results for r in stats.timed(result) if r.completed]
    reference = sut.reference_engine(workload)
    mismatched = [
        record.request.number
        for record in sample(completed, count)
        if sut.reference_output(reference, record.request) != record.tokens
    ]
    return {"checked": min(count, len(completed)), "mismatched": mismatched}


def output_digest(results) -> str:
    """sha256 over the outputs of the first ``DIGESTED`` timed requests of
    each phase, in request order. Under greedy decoding two commits that
    compute the same tokens print the same digest; a request that did not
    complete is folded in as such."""
    digest = hashlib.sha256()
    for result in results:
        records = sorted(stats.timed(result), key=lambda r: r.request.number)[:DIGESTED]
        for record in records:
            tokens = record.tokens if record.completed else ["incomplete"]
            digest.update(f"{record.request.number}:{tokens};".encode())
    return digest.hexdigest()

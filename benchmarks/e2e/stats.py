"""Percentiles and the end-to-end metrics of one timed window."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Refuses unless at least ``min_beyond`` samples lie beyond it on the
    far side: p95 needs 200 samples, a median 20.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = math.floor(n * min(q, 100.0 - q) / 100.0)
    if n == 0 or beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; needs {min_beyond}"
        )
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the repeatability measure the bounds are judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def timed(result) -> list:
    """Records of the timed window: sent (open: due) inside it and, in a
    closed loop, ended before it closed."""
    records = [r for r in result.records if result.t0 <= r.due <= result.t1]
    if result.mode == "closed":
        records = [r for r in records if r.done is not None and r.done <= result.t1]
    return records


def counts(result) -> dict:
    records = timed(result)
    errors: dict[str, int] = {}
    for record in records:
        if record.error is not None:
            errors[record.error] = errors.get(record.error, 0) + 1
    return {
        "sent": len(result.records),
        "timed": len(records),
        "succeeded": sum(1 for r in records if r.completed),
        "failed": sum(errors.values()),
        "errors": errors,
    }


def latency_metrics(result, min_beyond: int = MIN_BEYOND) -> dict:
    """TTFT, time per output token and inter-token gaps of one window, in
    milliseconds, as the clients saw them. A request's TTFT runs from its
    due time. Gaps that end after the window closed (the drain of an open
    loop) are left out. ``tpot_ms`` is a ratio of sums — total time
    between first and last token over total steps — not a mean of
    per-request ratios. The sample-size rule guards the gated median; the
    ungated 95th percentiles are reported beside their sample counts."""
    records = [r for r in timed(result) if r.token_times]
    ttft = [(r.token_times[0] - r.due) * 1e3 for r in records]
    gaps = [
        (b - a) * 1e3
        for record in records
        for a, b in zip(record.token_times, record.token_times[1:])
        if b <= result.t1
    ]
    return {
        "ttft_ms_p50": percentile(ttft, 50, min_beyond),
        "ttft_ms_p95": percentile(ttft, 95, 0),
        "tpot_ms": sum(gaps) / len(gaps) if gaps else 0.0,
        "itl_ms_p95": percentile(gaps, 95, 0) if gaps else 0.0,
        "samples": {"ttft": len(ttft), "gaps": len(gaps)},
    }


def goodput_tok_s(result) -> float:
    """Output tokens the clients received inside the window, per second."""
    tokens = sum(
        1 for record in result.records for t in record.token_times
        if result.t0 <= t < result.t1
    )
    return tokens / (result.t1 - result.t0)


SLO_TTFT_MS = 200.0
SLO_GAP_MS = 150.0


def slo_ok_frac(result) -> float:
    """Share of requests sent whose TTFT and largest gap met the limits;
    a failed or refused request misses."""
    records = timed(result)
    ok = 0
    for r in records:
        if not r.completed or not r.token_times:
            continue
        gaps = [b - a for a, b in zip(r.token_times, r.token_times[1:])]
        if (r.token_times[0] - r.due) * 1e3 <= SLO_TTFT_MS and max(gaps, default=0.0) * 1e3 <= SLO_GAP_MS:
            ok += 1
    return ok / len(records) if records else 0.0

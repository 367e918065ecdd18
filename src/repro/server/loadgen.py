"""Seeded open-loop load generation against the live runtime.

Replays the arrival processes and schema-popularity machinery of
:mod:`repro.serving.traces`: synthesize one trace, feed it to
:func:`run_open_loop`, and the same seed gives the same arrivals.

The generator materializes each :class:`SchemaProfile` as a real PML
schema (one ``context`` module sized to ``module_tokens``) and each
trace request as a derived prompt whose suffix is sized to the request's
``uncached_tokens``. Decode length is fixed per schema (the profile's
``decode_mean``).

The open loop fires submissions at the trace's arrival times whether or
not earlier requests finished — the regime that exposes admission
control and load shedding.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.serving.traces import SchemaProfile, TraceRequest
from repro.server.errors import DeadlineExceeded, Overloaded, ServerClosed
from repro.server.request import TraceRecord
from repro.server.runtime import LiveServer

# Deterministic filler vocabulary; byte-level BPE tokenizes anything.
_WORDS = (
    "harbor ferry service notes the crossing waits for tickets deck "
    "weather bundle night train upper closes heavy free charge bay "
    "museum cafe garden market square bridge station local express"
).split()


def _text_with_tokens(tokenizer, n_tokens: int, rng: np.random.Generator) -> str:
    """Deterministic word soup measuring ≈ ``n_tokens`` (never fewer)."""
    words: list[str] = []
    while True:
        words.extend(rng.choice(_WORDS, size=16))
        text = " ".join(words) + " "
        if len(tokenizer.encode(text)) >= n_tokens:
            return text


@dataclass
class LiveWorkload:
    """Executable PML materialization of a schema-profile pool."""

    profiles: list[SchemaProfile]
    schema_sources: dict[str, str]
    seed: int = 0

    def register(self, pc) -> None:
        for source in self.schema_sources.values():
            pc.register_schema(source)

    def decode_tokens_for(self, schema: str) -> int:
        for profile in self.profiles:
            if profile.name == schema:
                return max(1, profile.decode_mean)
        raise KeyError(schema)

    def prompt_for(self, schema: str, request_id: int, uncached_tokens: int) -> str:
        """A derived prompt importing the cached module plus a suffix of
        roughly ``uncached_tokens`` new tokens (unique per request id so
        suffixes are not trivially identical)."""
        rng = np.random.default_rng((self.seed, request_id))
        n_words = max(2, uncached_tokens // 2)
        suffix = " ".join(rng.choice(_WORDS, size=n_words))
        return (
            f'<prompt schema="{schema}"><context/> request {request_id} : '
            f"{suffix} ?</prompt>"
        )

    def prompt_for_trace(self, request: TraceRequest) -> tuple[str, int]:
        return (
            self.prompt_for(request.schema, request.request_id, request.uncached_tokens),
            self.decode_tokens_for(request.schema),
        )


def build_workload(
    profiles: list[SchemaProfile], tokenizer, seed: int = 0
) -> LiveWorkload:
    """Materialize one schema per profile, module sized to its
    ``module_tokens`` (measured with ``tokenizer``)."""
    sources: dict[str, str] = {}
    for i, profile in enumerate(profiles):
        rng = np.random.default_rng((seed, i))
        doc = _text_with_tokens(tokenizer, profile.module_tokens, rng)
        sources[profile.name] = (
            f'<schema name="{profile.name}">'
            f'<module name="context">{doc}</module>'
            f"</schema>"
        )
    return LiveWorkload(profiles=list(profiles), schema_sources=sources, seed=seed)


@dataclass
class LoadReport:
    """Outcome tallies plus per-request records for a load run."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    wall_s: float = 0.0
    records: list[TraceRecord] = field(default_factory=list)
    # Failure detail: exception type name -> count. A load run must never
    # lose the *reason* a request failed — "failed: 3" with no cause is
    # how engine bugs hide inside benchmark noise.
    failures: dict[str, int] = field(default_factory=dict)

    def record_failure(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.failures[name] = self.failures.get(name, 0) + 1

    @property
    def offered(self) -> int:
        return self.submitted + self.rejected

    def _ttfts(self) -> np.ndarray:
        return np.array(
            [r.ttft_s for r in self.records if r.ttft_s is not None] or [0.0]
        )

    def ttft_percentile(self, q: float) -> float:
        return float(np.percentile(self._ttfts(), q))

    @property
    def mean_ttft_s(self) -> float:
        return float(self._ttfts().mean())

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cache_hit_tokens(self) -> int:
        return sum(r.cached_tokens for r in self.records)

    @property
    def cached_token_fraction(self) -> float:
        cached = self.cache_hit_tokens
        total = cached + sum(r.uncached_tokens for r in self.records)
        return cached / total if total else 0.0


async def run_open_loop(
    server: LiveServer,
    workload: LiveWorkload,
    trace: list[TraceRequest],
    *,
    time_scale: float = 1.0,
    deadline_s: float | None = None,
) -> LoadReport:
    """Fire the trace's arrivals on schedule regardless of completions.

    ``time_scale`` compresses (<1) or stretches (>1) the trace clock so a
    trace synthesized at paper-scale rates can drive a NumPy-speed
    engine. Rejections (:class:`Overloaded`) are tallied, not raised.
    """
    report = LoadReport()
    start = server.clock()
    pending: list = []

    async def settle(request) -> None:
        try:
            await request.wait()
            report.completed += 1
        except DeadlineExceeded:
            report.expired += 1
        except Exception as exc:
            report.record_failure(exc)
        report.records.append(request.trace())

    for item in sorted(trace, key=lambda r: r.arrival_s):
        delay = (start + item.arrival_s * time_scale) - server.clock()
        if delay > 0:
            await asyncio.sleep(delay)
        prompt, max_new = workload.prompt_for_trace(item)
        try:
            request = await server.submit(
                prompt, max_new_tokens=max_new, deadline_s=deadline_s
            )
        except Overloaded:
            report.rejected += 1
            continue
        except ServerClosed:
            # Draining (SIGTERM mid-trace): stop offering load, but let
            # everything already accepted settle into the report below.
            break
        report.submitted += 1
        pending.append(asyncio.create_task(settle(request)))

    if pending:
        await asyncio.gather(*pending)
    report.wall_s = server.clock() - start
    return report


def build_raw_prompts(
    tokenizer,
    n: int,
    *,
    shared_tokens: int = 64,
    suffix_tokens: int = 16,
    seed: int = 0,
    prefix: str | None = None,
) -> list[str]:
    """``n`` schema-free prompts: one shared system preamble of
    ``shared_tokens`` plus a unique per-user suffix — the chatbot-style
    traffic reuse discovery is built to mine. No PML, no registration:
    the shared prefix is only discoverable from the token streams."""
    rng = np.random.default_rng(seed)
    if prefix is None:
        prefix = _text_with_tokens(tokenizer, shared_tokens, rng)
    prompts = []
    for i in range(n):
        suffix = " ".join(rng.choice(_WORDS, size=max(2, suffix_tokens // 2)))
        prompts.append(f"{prefix}user {i} : {suffix} ?")
    return prompts


async def run_raw_open_loop(
    server: LiveServer,
    prompts: list[str],
    *,
    interval_s: float = 0.0,
    max_new_tokens: int = 8,
    deadline_s: float | None = None,
) -> LoadReport:
    """Open-loop raw-text driver: submit each prompt through
    :meth:`LiveServer.submit_text` at a fixed interval. The raw analogue
    of :func:`run_open_loop` for discovery benchmarks."""
    report = LoadReport()
    start = server.clock()
    pending: list = []

    async def settle(request) -> None:
        try:
            await request.wait()
            report.completed += 1
        except DeadlineExceeded:
            report.expired += 1
        except Exception as exc:
            report.record_failure(exc)
        report.records.append(request.trace())

    for i, text in enumerate(prompts):
        if interval_s and i:
            delay = (start + i * interval_s) - server.clock()
            if delay > 0:
                await asyncio.sleep(delay)
        try:
            request = await server.submit_text(
                text, max_new_tokens=max_new_tokens, deadline_s=deadline_s
            )
        except Overloaded:
            report.rejected += 1
            continue
        except ServerClosed:
            break
        report.submitted += 1
        pending.append(asyncio.create_task(settle(request)))

    if pending:
        await asyncio.gather(*pending)
    report.wall_s = server.clock() - start
    return report


"""Event-driven serving simulator: Prompt Cache as a system component.

The paper positions Prompt Cache "as a foundational component for future
LLM serving systems" (§6). This simulator quantifies that: a single
inference server (FCFS queue) replays a request trace under either

- ``baseline`` — every request pays a full KV-cache prefill, or
- ``prompt-cache`` — requests pay module splice + suffix prefill; module
  states live in a capacity-limited GPU tier (demoted to host DRAM on
  eviction, paying host-to-device copy on reuse; first-ever use pays the
  one-time encode).

Per-request service times come from the calibrated roofline model
(:mod:`repro.hw.latency`), so queueing delay, tail latency, and the
sustainable arrival rate are all derived from the same physics as the
paper's Figures 3–5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.hw.device import DeviceSpec
from repro.hw.latency import baseline_ttft, cached_ttft, decode_step_latency
from repro.llm.config import ModelConfig
from repro.llm.flops import kv_bytes
from repro.serving.traces import TraceRequest

MODES = ("baseline", "prompt-cache")


@dataclass
class SimulatedKV:
    """Byte-accounted stand-in for a module's tensors inside the store."""

    tokens: int
    bytes_: int

    def nbytes(self) -> int:
        return self.bytes_

    def __len__(self) -> int:
        return self.tokens


@dataclass(frozen=True)
class SimConfig:
    model: ModelConfig
    device: DeviceSpec
    mode: str  # one of MODES
    gpu_capacity_bytes: int | None = None  # module-cache budget (prompt-cache)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class RequestOutcome:
    request: TraceRequest
    start_s: float
    ttft_done_s: float
    finish_s: float

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.request.arrival_s

    @property
    def ttft_s(self) -> float:
        """User-perceived TTFT: queueing + prefill."""
        return self.ttft_done_s - self.request.arrival_s


@dataclass
class SimReport:
    mode: str
    outcomes: list[RequestOutcome] = field(default_factory=list)
    encode_events: int = 0
    h2d_fetches: int = 0

    def _ttfts(self) -> np.ndarray:
        return np.array([o.ttft_s for o in self.outcomes])

    def ttft_percentile(self, q: float) -> float:
        return float(np.percentile(self._ttfts(), q)) if self.outcomes else 0.0

    @property
    def mean_ttft_s(self) -> float:
        return float(self._ttfts().mean()) if self.outcomes else 0.0

    @property
    def throughput_rps(self) -> float:
        if not self.outcomes:
            return 0.0
        makespan = max(o.finish_s for o in self.outcomes)
        return len(self.outcomes) / makespan if makespan > 0 else 0.0

    @property
    def utilization(self) -> float:
        if not self.outcomes:
            return 0.0
        busy = sum(o.finish_s - o.start_s for o in self.outcomes)
        return busy / max(o.finish_s for o in self.outcomes)


def _service_times(
    cfg: SimConfig,
    request: TraceRequest,
    store: ModuleCacheStore | None,
    report: SimReport,
) -> tuple[float, float]:
    """(prefill seconds, decode seconds) for one request."""
    total = request.total_prompt_tokens
    decode_s = request.decode_tokens * decode_step_latency(
        cfg.model, total, cfg.device
    )
    if cfg.mode == "baseline":
        return baseline_ttft(cfg.model, total, cfg.device).total_s, decode_s

    assert store is not None
    key = CacheKey(schema=request.schema, module="context")
    found = store.fetch(key)
    if found is None:
        # First-ever use: encode the module (a one-time full prefill of the
        # module text) and serve this request from the fresh states.
        report.encode_events += 1
        encode_s = baseline_ttft(cfg.model, request.cached_tokens, cfg.device).total_s
        store.put(
            key,
            SimulatedKV(
                tokens=request.cached_tokens,
                bytes_=kv_bytes(cfg.model, request.cached_tokens, cfg.device.dtype_bytes),
            ),
            tier="gpu",
        )
        storage = "gpu"
        prefill_s = encode_s + cached_ttft(
            cfg.model, total, request.uncached_tokens, cfg.device, storage
        ).total_s
        return prefill_s, decode_s

    storage = found.tier
    if storage == "cpu":
        report.h2d_fetches += 1
        # Promote back to the GPU tier for subsequent requests.
        store.prefetch([key])
    prefill_s = cached_ttft(
        cfg.model, total, request.uncached_tokens, cfg.device, storage
    ).total_s
    return prefill_s, decode_s


def simulate(trace: list[TraceRequest], cfg: SimConfig) -> SimReport:
    """Replay ``trace`` through a single FCFS server; returns the report."""
    report = SimReport(mode=cfg.mode)
    store = None
    if cfg.mode == "prompt-cache":
        store = ModuleCacheStore(gpu_capacity_bytes=cfg.gpu_capacity_bytes)
    server_free_at = 0.0
    for request in sorted(trace, key=lambda r: r.arrival_s):
        start = max(request.arrival_s, server_free_at)
        prefill_s, decode_s = _service_times(cfg, request, store, report)
        ttft_done = start + prefill_s
        finish = ttft_done + decode_s
        server_free_at = finish
        report.outcomes.append(
            RequestOutcome(
                request=request, start_s=start, ttft_done_s=ttft_done, finish_s=finish
            )
        )
    return report


def sustainable_rate(
    profiles,
    cfg: SimConfig,
    *,
    rates: list[float],
    duration_s: float = 120.0,
    ttft_slo_s: float = 2.0,
    seed: int = 0,
) -> float:
    """Highest tested arrival rate whose p95 TTFT stays within the SLO."""
    from repro.serving.traces import synthesize_trace

    best = 0.0
    for rate in rates:
        trace = synthesize_trace(profiles, rate, duration_s, seed=seed)
        if not trace:
            continue
        report = simulate(trace, cfg)
        if report.ttft_percentile(95) <= ttft_slo_s:
            best = max(best, rate)
    return best

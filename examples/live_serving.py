"""Live serving runtime: steady state and overload shedding (paper §6).

Run:  python examples/live_serving.py

Two phases over the same seeded schema pool, both driven through
``repro.server.LiveServer`` — the asyncio runtime that batches, admits,
and sheds requests against the *real* engine:

1. **Steady state** — an open-loop Poisson trace at a sustainable rate is
   served live; TTFT percentiles and the GPU tier's hit rate are printed.
2. **Overload** — the arrival rate is pushed far past the engine's
   capacity. The bounded admission queue and queue-delay budget shed the
   excess with typed ``Overloaded`` rejections while the runtime keeps
   serving what it admitted.

The run ends with the Prometheus-text metrics snapshot: TTFT histogram
percentiles, request outcomes, and module-store eviction counters (the
GPU tier budget is deliberately too small for the schema pool, so
evictions and demotions are live).
"""

import asyncio

from repro import PromptCache, build_model, tiny_config
from repro.cache.storage import ModuleCacheStore
from repro.pml.chat import PLAIN_TEMPLATE
from repro.serving import SchemaProfile, synthesize_trace
from repro.server import LiveServer, ServeOptions, build_workload, run_open_loop
from repro.tokenizer import default_tokenizer

PROFILES = [
    SchemaProfile(f"schema{i}", module_tokens=48, uncached_mean=10,
                  decode_mean=4, weight=1.0 / (i + 1))
    for i in range(3)
]
SEED = 7
GPU_BUDGET = 160_000  # bytes; holds ~2 of the 3 schemas → live evictions


def build_engine():
    tok = default_tokenizer()
    model = build_model(tiny_config("llama", vocab_size=tok.vocab_size), seed=SEED)
    # The store's placement promotes modules hit in DRAM at a steady
    # cadence, so hot modules keep contending for the bounded GPU tier and
    # eviction/demotion stays live during serving.
    store = ModuleCacheStore(gpu_capacity_bytes=GPU_BUDGET)
    pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    workload = build_workload(PROFILES, tok, seed=SEED)
    workload.register(pc)
    return pc, workload


async def drive(pc, workload, trace, options):
    server = LiveServer(pc, options)
    async with server:
        report = await run_open_loop(server, workload, trace)
    return server, report


def main() -> None:
    pc, workload = build_engine()

    # Phase 1: steady state.
    steady = synthesize_trace(PROFILES, rate_rps=12.0, duration_s=2.0, seed=SEED)
    options = ServeOptions(max_queue_depth=32, queue_delay_budget_s=2.0)
    server, live = asyncio.run(drive(pc, workload, steady, options))

    print(f"steady trace: {len(steady)} requests @ 12/s")
    print(f"TTFT p50 {1000 * live.ttft_percentile(50):.1f}ms   "
          f"p95 {1000 * live.ttft_percentile(95):.1f}ms")
    print(f"cache hit-rate (gpu tier): {pc.store.gpu.stats.hit_rate:.2f}")
    assert live.cached_token_fraction > 0, "live run must hit the cache"

    # Phase 2: overload — demand far beyond capacity, shed at admission.
    overload = synthesize_trace(PROFILES, rate_rps=2000.0, duration_s=0.25, seed=SEED)
    options = ServeOptions(max_queue_depth=8, queue_delay_budget_s=0.1)
    server2, shed = asyncio.run(drive(pc, workload, overload, options))

    print(f"\noverload trace: {len(overload)} requests @ 2000/s")
    print(f"admitted {shed.submitted}  completed {shed.completed}  "
          f"rejected {shed.rejected}  expired {shed.expired}")
    print(f"admitted-request TTFT p95: {1000 * shed.ttft_percentile(95):.1f}ms "
          f"(queue bounded, so the served tail stays flat)")
    assert shed.rejected > 0, "overload must shed load"
    assert shed.completed > 0, "runtime must stay responsive under overload"

    print("\n--- Prometheus metrics snapshot (overload phase) ---")
    for line in server2.prometheus().splitlines():
        if line.startswith(("server_ttft_seconds_quantile", "server_requests_total",
                            "server_rejections_total", "cache_evictions_total",
                            "cache_tier_hit_rate")):
            print(line)


if __name__ == "__main__":
    main()

"""Per-layer metrics of one traced window.

Inputs are what the outside can see: the spans of ``tracepoints.py``, the
clients' records with the server's own timestamps on their handles, and
the difference of the public statistics objects across the window.
Layers are the repository's modules. A metric that does not apply to a
workload (no fabric, no discovery) reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import stats
import sut
from tracepoints import ATTRS, END, EXECUTOR_TASK, NAME, PARENT, START, THREAD, self_times

# Which budget line each span's self time is charged to.
BUDGET_OF = {
    "llm.forward_decode_batch": "llm_decode",
    "llm.sample": "llm_decode",
    "llm.forward": "llm_prefill",
    "engine.open_stream": "engine",
    "engine.open_text_stream": "engine",
    "engine.prefill_step": "engine",
    "engine.finish": "engine",
    "store.fetch": "store",
    "store.put": "store",
    "store.maintenance": "store",
    "store.observe_reencode": "store",
    "reuse.observe": "reuse",
    "reuse.match": "reuse",
    "tokenizer.encode": "tokenizer",
    "scheduler.iterate": "scheduler_self",
    EXECUTOR_TASK: "unattributed",
}
BUDGET_LINES = (
    "llm_decode", "llm_prefill", "engine", "store", "reuse", "tokenizer",
    "scheduler_self", "unattributed",
)


def _pct(values, q: float) -> float:
    return stats.percentile(values, q, min_beyond=0) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _delta(after: dict | None, before: dict | None, *path) -> float:
    """Growth of one counter of a statistics dict across the window."""
    if after is None or before is None:
        return 0.0
    for key in path:
        after, before = after[key], before[key]
    return after - before


class Snapshot:
    """The public statistics at one moment (see ``sut.py``)."""

    def __init__(self, engine, server) -> None:
        self.tiers = sut.tier_stats(engine.pc)
        self.fabric = sut.fabric_stats(engine.pc)
        self.discovery = sut.discovery_stats(engine.pc)
        self.plan = sut.plan_stats(engine.pc)
        self.stalls = sut.admission_stalls(server)


def layer_metrics(
    spans: list[list], result, before: Snapshot, after: Snapshot,
    *, loop_thread: int, kv_bytes_per_token: int,
) -> dict[str, float]:
    """``name -> value`` for every per-layer metric but the ``micro.`` and
    ``trace.`` ones; units are in ``BENCHMARK.json``."""
    t0, t1 = result.t0 * 1e9, result.t1 * 1e9
    spans = [s for s in spans if t0 <= s[START] and s[END] <= t1]
    own = self_times(spans)
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)

    def dur_us(name: str) -> list[float]:
        return [(s[END] - s[START]) / 1e3 for s in by_name[name]]

    def attr_sum(name: str, key: str) -> float:
        return sum(s[ATTRS][key] for s in by_name[name] if s[ATTRS])

    window_s = result.t1 - result.t0
    records = stats.timed(result)
    done = [r for r in records if r.completed and r.handle is not None]
    m: dict[str, float] = {}

    # runtime: the asyncio shell around the engine
    queue_wait = [
        (r.handle.started_at - r.handle.submitted_at) * 1e3
        for r in done if r.handle.started_at is not None
    ]
    lag = [
        (r.token_times[0] - r.handle.first_token_at) * 1e3
        for r in done if r.token_times and r.handle.first_token_at is not None
    ]
    submits = dur_us("runtime.submit") + dur_us("runtime.submit_text")
    hops = [s[ATTRS]["hop_ns"] / 1e3 for s in by_name[EXECUTOR_TASK]]
    counts = stats.counts(result)
    m["runtime.queue_wait_ms_p50"] = _pct(queue_wait, 50)
    m["runtime.queue_wait_ms_p95"] = _pct(queue_wait, 95)
    m["runtime.delivery_lag_ms_p50"] = _pct(lag, 50)
    m["runtime.submit_us_p50"] = _pct(submits, 50)
    m["runtime.executor_hop_us_p50"] = _pct(hops, 50)
    m["runtime.admission_stalls"] = after.stalls - before.stalls
    m["runtime.loop_busy_frac"] = _ratio(result.loop_cpu_s, window_s)
    m["runtime.gen_lag_ms_p95"] = _pct([(r.sent - r.due) * 1e3 for r in records], 95)
    m["runtime.slo_ok_frac"] = stats.slo_ok_frac(result)
    m["runtime.failed_frac"] = _ratio(counts["failed"], counts["timed"])

    # scheduler: one span per iteration
    iterations = by_name["scheduler.iterate"]
    iterate_ms = [d / 1e3 for d in dur_us("scheduler.iterate")]
    decode_batches = [s[ATTRS]["decode_batch"] for s in iterations if s[ATTRS] and s[ATTRS]["decode_batch"]]
    group_sizes = [g for s in iterations if s[ATTRS] for g in s[ATTRS]["groups"]]
    shared_kv = attr_sum("scheduler.iterate", "shared_kv")
    private_kv = attr_sum("scheduler.iterate", "private_kv")
    m["scheduler.iterations"] = len(iterations)
    m["scheduler.iterate_ms_p50"] = _pct(iterate_ms, 50)
    m["scheduler.iterate_ms_p95"] = _pct(iterate_ms, 95)
    m["scheduler.self_us_per_iter"] = (
        _ratio(sum(own[id(s)] for s in iterations) / 1e3, len(iterations))
    )
    m["scheduler.occupancy_mean"] = statistics.fmean(decode_batches) if decode_batches else 0.0
    m["scheduler.prefill_tokens_per_iter"] = (
        _ratio(attr_sum("scheduler.iterate", "prefill_tokens"), len(iterations))
    )
    m["scheduler.shared_group_size_mean"] = statistics.fmean(group_sizes) if group_sizes else 0.0
    m["scheduler.shared_kv_frac"] = _ratio(shared_kv, shared_kv + private_kv)

    # engine: plan, splice, stream bookkeeping
    opens = dur_us("engine.open_stream") + dur_us("engine.open_text_stream")
    plan_hits = after.plan["hits"] - before.plan["hits"]
    plan_misses = after.plan["misses"] - before.plan["misses"]
    cached = sum(r.handle.result.cached_tokens for r in done)
    prompt = sum(r.handle.result.prompt_tokens for r in done)
    m["engine.open_stream_us_p50"] = _pct(opens, 50)
    m["engine.open_stream_us_p95"] = _pct(opens, 95)
    m["engine.plan_hit_frac"] = _ratio(plan_hits, plan_hits + plan_misses)
    m["engine.cached_token_frac"] = _ratio(cached, prompt)
    m["engine.finish_us_p50"] = _pct(dur_us("engine.finish"), 50)

    # store: the two resident tiers and, on a fabric, the colder ones
    fetches = by_name["store.fetch"]
    sources = defaultdict(int)
    for span in fetches:
        if span[ATTRS]:
            sources[span[ATTRS]["source"]] += 1
    pulled: set[str] = set()
    useful = 0
    for span in sorted(by_name["store.maintenance"] + fetches, key=lambda s: s[START]):
        if not span[ATTRS]:
            continue
        if span[NAME] == "store.maintenance":
            pulled.update(span[ATTRS]["pulled"])
        elif span[ATTRS]["source"] == "cpu" and span[ATTRS]["key"] in pulled:
            pulled.discard(span[ATTRS]["key"])
            useful += 1
    reencodes = by_name["store.observe_reencode"]
    evictions = sum(_delta(after.tiers, before.tiers, t, "evictions") for t in ("fast", "dram"))
    evicted = sum(_delta(after.tiers, before.tiers, t, "bytes_evicted") for t in ("fast", "dram"))
    planned = _delta(after.fabric, before.fabric, "prefetch", "planned")
    m["store.fetch_calls"] = len(fetches)
    m["store.fetch_us_p50"] = _pct(dur_us("store.fetch"), 50)
    m["store.fetch_us_p95"] = _pct(dur_us("store.fetch"), 95)
    m["store.hit_frac.fast"] = _ratio(sources["gpu"], len(fetches))
    m["store.hit_frac.dram"] = _ratio(sources["cpu"], len(fetches))
    m["store.hit_frac.snapshot"] = _ratio(sources["snapshot"], len(fetches))
    m["store.reencodes"] = len(reencodes)
    m["store.reencode_ms_p50"] = (
        _pct([s[ATTRS]["seconds"] * 1e3 for s in reencodes if s[ATTRS]], 50)
    )
    m["store.puts"] = len(by_name["store.put"])
    m["store.evictions"] = evictions
    m["store.evicted_mb"] = evicted / 1e6
    m["store.maintenance_runs"] = len(by_name["store.maintenance"])
    m["store.maintenance_ms_total"] = sum(dur_us("store.maintenance")) / 1e3
    m["store.prefetch_planned"] = planned
    m["store.prefetch_useful_frac"] = _ratio(useful, planned)

    # reuse: trie and miner, on the raw-text path
    raw = [r for r in done if r.request.kind == "text"]
    m["reuse.observe_us_p50"] = _pct(dur_us("reuse.observe"), 50)
    m["reuse.match_us_p50"] = _pct(dur_us("reuse.match"), 50)
    m["reuse.promotions"] = _delta(after.discovery, before.discovery, "promotions")
    m["reuse.trie_evictions"] = _delta(after.discovery, before.discovery, "trie_evictions")
    m["reuse.raw_cached_token_frac"] = (
        _ratio(sum(r.handle.result.cached_tokens for r in raw),
               sum(r.handle.result.prompt_tokens for r in raw))
    )

    # tokenizer
    encodes = by_name["tokenizer.encode"]
    m["tokenizer.encode_calls_per_req"] = _ratio(len(encodes), len(records))
    m["tokenizer.encode_us_per_ktok"] = (
        _ratio(sum(dur_us("tokenizer.encode")), attr_sum("tokenizer.encode", "tokens") / 1e3)
    )

    # llm: prefill and batched decode forwards, sampling
    prefills = by_name["llm.forward"]
    decodes = by_name["llm.forward_decode_batch"]
    prefill_tokens = attr_sum("llm.forward", "tokens")
    m["llm.prefill_calls"] = len(prefills)
    m["llm.prefill_tokens"] = prefill_tokens
    m["llm.prefill_ms_per_ktok"] = _ratio(sum(dur_us("llm.forward")) / 1e3, prefill_tokens / 1e3)
    m["llm.decode_calls"] = len(decodes)
    m["llm.decode_ms_p50"] = _pct([d / 1e3 for d in dur_us("llm.forward_decode_batch")], 50)
    m["llm.decode_us_per_token"] = (
        _ratio(sum(dur_us("llm.forward_decode_batch")), attr_sum("llm.forward_decode_batch", "batch"))
    )
    m["llm.sample_us_p50"] = _pct(dur_us("llm.sample"), 50)
    # Computed from tensor shapes (rows read x bytes per cached token), not measured.
    m["llm.decode_kv_mb_per_step"] = (
        _ratio(attr_sum("llm.forward_decode_batch", "kv_rows") * kv_bytes_per_token / 1e6,
               len(decodes))
    )

    # budget: engine-thread busy time by self time
    budget = dict.fromkeys(BUDGET_LINES, 0)
    for span in spans:
        if span[THREAD] != loop_thread:
            budget[BUDGET_OF[span[NAME]]] += own[id(span)]
    busy = sum(budget.values())
    m["budget.engine_busy_frac"] = _ratio(busy / 1e9, window_s)
    for line in BUDGET_LINES:
        m[f"budget.{line}_frac"] = _ratio(budget[line], busy)
    return m


def assign_requests(spans: list[list]) -> None:
    """Give stream-bound spans the request they worked for: an
    ``open_*stream`` span takes the next id its iteration admitted, and
    every later span on that stream inherits it."""
    stream_request: dict[int, str] = {}
    taken: dict[int, int] = defaultdict(int)
    for span in sorted(spans, key=lambda s: s[START]):
        attrs = span[ATTRS]
        if not attrs or "stream" not in attrs:
            continue
        parent = span[PARENT]
        if span[NAME].startswith("engine.open") and parent is not None and parent[ATTRS]:
            admitted = parent[ATTRS].get("admitted", [])
            k = taken[id(parent)]
            taken[id(parent)] += 1
            if k < len(admitted):
                stream_request[attrs["stream"]] = admitted[k]
        if attrs["stream"] in stream_request:
            attrs["req"] = stream_request[attrs["stream"]]

"""The system under test: the only benchmark file that imports ``repro``.

Everything the benchmark needs from the repository is listed here, by
its public name. A change to the repository that keeps these entry
points lands without editing the benchmark; a change that renames one of
them edits this file and nothing else.

Public entry points used (module: names):

- ``repro.tokenizer``: ``default_tokenizer`` and the tokenizer's ``encode``
- ``repro.llm``: ``build_model``, ``small_config``; ``TransformerModel.forward``,
  ``forward_decode_batch``, ``config``
- ``repro.cache.engine``: ``PromptCache`` (``register_schema``, ``serve``,
  ``serve_text``, ``open_stream``, ``open_text_stream``, ``attach_discovery``,
  ``plan_cache_stats``, ``prompt_token_count``, ``store``, ``discovery``),
  ``ServeStream`` (``prefill_step``, ``next_token``, ``finish``, ``abort``)
- ``repro.cache.storage``: ``ModuleCacheStore`` (``fetch``, ``put``, tier
  ``stats``/``keys``), ``CacheKey``
- ``repro.cache.persist``: ``save_store``
- ``repro.fabric``: ``FabricStore`` (``fetch``, ``maintenance``,
  ``observe_reencode``, ``fabric_snapshot``)
- ``repro.reuse``: ``ReuseMiner`` (``observe``, ``match``, ``snapshot``),
  ``TokenRadixTrie`` (``insert``, ``longest_prefix``)
- ``repro.server``: ``LiveServer`` (``submit``, ``submit_text``, ``start``,
  ``stop``, ``snapshot``), ``ServeOptions``, ``ContinuousScheduler``
  (``iterate``, ``abort_all``), ``LiveRequest`` (``stream``)

Attributes the traced run reads off objects those calls hand out
(``tracepoints.py`` captures, ``layers.py``): ``LiveRequest.request_id`` /
``submitted_at`` / ``started_at`` / ``first_token_at`` / ``result``;
``ServeResult.cached_tokens`` / ``prompt_tokens``; ``IterationOutcome.emitted``
/ ``finished`` / ``prefill_tokens`` / ``decode_batch`` / ``shared_group_sizes``
/ ``shared_kv_tokens`` / ``private_kv_tokens``; ``FetchResult.source``;
``CacheKey.tag()``; the DRAM tier's ``keys()``; ``len()`` of a KV cache.

Only defaults are used, except for capacities and admission limits, which
are not modes: ``max_inflight`` (decode slots), the fabric's byte budgets,
and ``queue_delay_budget_s`` (see :func:`new_server`).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if not (REPO_ROOT / "src" / "repro").is_dir():
    # Never fall back to a copy of repro installed elsewhere: the benchmark
    # measures the checkout it sits in.
    raise ImportError(f"no repro source tree under {REPO_ROOT / 'src'}")
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache.engine import PromptCache, ServeStream  # noqa: E402
from repro.cache.persist import save_store  # noqa: E402
from repro.cache.storage import CacheKey, ModuleCacheStore  # noqa: E402
from repro.fabric import FabricStore  # noqa: E402
from repro.llm import build_model, small_config  # noqa: E402
from repro.llm.models import TransformerModel  # noqa: E402
from repro.reuse import ReuseMiner, TokenRadixTrie  # noqa: E402
from repro.server import (  # noqa: E402
    ContinuousScheduler,
    LiveRequest,
    LiveServer,
    ServeOptions,
)
from repro.tokenizer import default_tokenizer  # noqa: E402

MODEL_SEED = 0
MAX_INFLIGHT = 16

# Classes whose public functions tracepoints.py may wrap, by name.
TRACE_TARGETS = {
    "LiveServer": LiveServer,
    "ContinuousScheduler": ContinuousScheduler,
    "PromptCache": PromptCache,
    "ServeStream": ServeStream,
    "TransformerModel": TransformerModel,
    "ModuleCacheStore": ModuleCacheStore,
    "FabricStore": FabricStore,
    "ReuseMiner": ReuseMiner,
    "Tokenizer": type(default_tokenizer()),
}


def tokenizer():
    return default_tokenizer()


@dataclass
class Engine:
    """One built system."""

    pc: PromptCache
    kv_bytes_per_token: int  # float32 K and V rows across all layers


def _model():
    return build_model(
        small_config("llama", vocab_size=tokenizer().vocab_size), seed=MODEL_SEED
    )


def _kv_bytes_per_token(model) -> int:
    return model.config.kv_bytes_per_token(bytes_per_element=4)


def build_engine(workload, scratch_dir: Path) -> Engine:
    """Model, store, schema registration and discovery for one workload.

    A workload with a ``store`` shape gets a :class:`FabricStore` whose
    fast and DRAM tiers hold that many schemas: the snapshot-backed
    schemas are encoded once on an unconstrained engine, written as a
    snapshot under ``scratch_dir`` and attached as the fabric's disk
    tier; the others are encoded into the fabric itself, so their
    eviction costs a re-encode. Every other workload uses the engine's
    default store.
    """
    model = _model()
    tok = tokenizer()
    shape = workload.store
    if shape is None:
        pc = PromptCache(model, tok)
        for schema in workload.schemas:
            pc.register_schema(schema.source)
    else:
        backed = [s for s in workload.schemas if s.snapshot_backed]
        seed_pc = PromptCache(model, tok)
        for schema in backed:
            seed_pc.register_schema(schema.source)
        schema_bytes = seed_pc.store.total_bytes() / len(backed)
        save_store(seed_pc.store, scratch_dir)
        store = FabricStore(
            int(schema_bytes * shape.fast_schemas),
            int(schema_bytes * shape.dram_schemas),
            snapshot_dir=scratch_dir,
        )
        pc = PromptCache(model, tok, store=store)
        for schema in workload.schemas:
            pc.register_schema(schema.source, eager=not schema.snapshot_backed)
    if workload.discovery:
        pc.attach_discovery()
    return Engine(pc, _kv_bytes_per_token(model))


def reference_engine(workload) -> PromptCache:
    """A fresh engine for the output check: plain unbounded store, no
    discovery, whole-request ``serve`` / ``serve_text``."""
    pc = PromptCache(_model(), tokenizer())
    for schema in workload.schemas:
        pc.register_schema(schema.source)
    return pc


def reference_output(pc: PromptCache, request) -> list[int]:
    serve = pc.serve_text if request.kind == "text" else pc.serve
    return list(serve(request.prompt, max_new_tokens=request.max_new_tokens).output_ids)


def new_server(engine: Engine) -> LiveServer:
    """Defaults, with 16 decode slots and delay-based shedding off.

    The delay estimate multiplies requests in flight by the smoothed gap
    between completions; sixteen long decodes complete in bunches, the
    gap estimate overshoots and the server refuses callers it has free
    slots for. The benchmark measures workloads on which nothing fails,
    so that refusal is switched off; the queue-depth bound stays."""
    return LiveServer(
        engine.pc,
        ServeOptions(max_inflight=MAX_INFLIGHT, queue_delay_budget_s=None),
    )


# -- read-only views of public statistics, for the per-layer metrics ------------


def tier_stats(pc: PromptCache) -> dict:
    """Hit/insert/evict counters of the two resident tiers."""
    out = {}
    for name, tier in (("fast", pc.store.gpu), ("dram", pc.store.cpu)):
        stats = tier.stats
        out[name] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "insertions": stats.insertions,
            "evictions": stats.evictions,
            "bytes_evicted": stats.bytes_evicted,
        }
    return out


def fabric_stats(pc: PromptCache) -> dict | None:
    snapshot = getattr(pc.store, "fabric_snapshot", None)
    return snapshot() if snapshot is not None else None


def discovery_stats(pc: PromptCache) -> dict | None:
    return pc.discovery.snapshot() if pc.discovery is not None else None


def plan_stats(pc: PromptCache) -> dict:
    stats = pc.plan_cache_stats()
    return {"hits": stats.hits, "misses": stats.misses}


def admission_stalls(server: LiveServer) -> float:
    counters = server.snapshot().get("counters", {})
    return sum(
        value for name, value in counters.items()
        if name.startswith("server_admission_stalls_total")
    )


# -- direct calls for the micro rates -------------------------------------------


def micro_subjects(shared_tokens_text: str, clock=time.monotonic) -> dict:
    """Objects the micro benchmarks call directly: a trie, an engine with
    one registered schema and a scheduler over it."""
    pc = PromptCache(_model(), tokenizer())
    pc.register_schema(
        f'<schema name="micro"><module name="m">{shared_tokens_text}</module></schema>'
    )
    return {
        "trie": TokenRadixTrie(),
        "pc": pc,
        "key": CacheKey("micro", "m"),
        "scheduler": ContinuousScheduler(pc, max_inflight=MAX_INFLIGHT, clock=clock),
        "request": lambda i, prompt, budget: LiveRequest(
            request_id=f"micro-{i}", prompt=prompt, schema="micro",
            max_new_tokens=budget, submitted_at=clock(),
        ),
    }

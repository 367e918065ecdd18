"""A dropped engine or server gives its memory back at once.

The serving graph is acyclic: owners hold what they own, and no owned
object holds its owner (a store's listener on its engine is weak, the
miner hands its decisions back to the engine that called it, a stopped
server unregisters what it registered). So ``del`` frees a whole engine —
model, modules, spliced bases, trie, metrics — by reference counting,
without waiting for a garbage-collection pass, and serving leaves no
cyclic garbage behind.

Both checks run with the garbage collector kept out of the way: (a)
under ``gc.disable()`` with no collection, (b) under ``DEBUG_SAVEALL``,
which keeps whatever a collection would have freed in ``gc.garbage``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import weakref

import pytest

from repro.cache.engine import PromptCache
from repro.cache.persist import save_store
from repro.cache.storage import ModuleCacheStore
from repro.llm import build_model, tiny_config
from repro.pml.chat import PLAIN_TEMPLATE
from repro.reuse import DiscoveryConfig
from repro.server import ContinuousScheduler, LiveServer, ServeOptions
from repro.server.request import LiveRequest

SCHEMAS = [
    f'<schema name="s{i}">'
    f'<module name="intro">plan a trip lasting three days focus on food {word}</module>'
    f'<module name="city">visit <param name="place" len="4"/> museums cafes '
    f"architecture louvre seine {word}</module>"
    "</schema>"
    for i, word in enumerate(("paris", "miami", "coral", "dog"))
]
PLACES = ("rome", "oslo", "lima", "kyiv", "baku")
SHARED_TEXT = "the quick brown fox jumps over the lazy dog " * 2
RAW_TAILS = ("plan a trip", "paris museums cafes", "miami beaches", "surf spots art")
DISCOVERY = DiscoveryConfig(min_hits=2, min_tokens=4, max_trie_tokens=48)


def pml_prompt(i: int) -> str:
    """A prompt with a fresh argument each time, so each one compiles."""
    schema = i % len(SCHEMAS)
    return (
        f'<prompt schema="s{schema}"><intro/><city place="{PLACES[i % len(PLACES)]}"/>'
        f" answer the question {i}</prompt>"
    )


def raw_prompt(i: int) -> str:
    return SHARED_TEXT + RAW_TAILS[i % len(RAW_TAILS)] + f" {i}"


def fresh_model(tok):
    return build_model(tiny_config("llama", vocab_size=tok.vocab_size), seed=3)


def schema_bytes(model, tok) -> int:
    probe = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    probe.register_schema(SCHEMAS[0])
    return probe.store.total_bytes()


def default_shape(model, tok, tmp_path) -> PromptCache:
    """The workloads' default store kind (no snapshot directory), small
    enough that serving evicts, with discovery and a trie that evicts."""
    one = schema_bytes(model, tok)
    pc = PromptCache(
        model, tok, store=ModuleCacheStore(one, one), template=PLAIN_TEMPLATE
    )
    for source in SCHEMAS:
        pc.register_schema(source)
    pc.attach_discovery(DISCOVERY)
    return pc


def fabric_shape(model, tok, tmp_path) -> PromptCache:
    """``tier_churn``'s kind: tiers holding about one schema each over a
    snapshot directory; half the schemas are paged in from a snapshot,
    the rest encoded into the store and spilled when evicted."""
    seed = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    for source in SCHEMAS[:2]:
        seed.register_schema(source)
    one = seed.store.total_bytes() // 2
    save_store(seed.store, tmp_path)
    del seed
    store = ModuleCacheStore(one, one, snapshot_dir=tmp_path)
    pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    for i, source in enumerate(SCHEMAS):
        pc.register_schema(source, eager=i >= 2)
    return pc


@contextlib.contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


async def serve_and_stop(pc: PromptCache) -> LiveServer:
    server = LiveServer(
        pc, ServeOptions(queue_delay_budget_s=None, store_sweep_interval_s=0.002)
    )
    await server.start()
    requests = []
    for i in range(12):
        requests.append(await server.submit(pml_prompt(i), max_new_tokens=3))
        requests.append(await server.submit_text(raw_prompt(i), max_new_tokens=3))
    for request in requests:
        await request.wait()
        assert request.error is None, request.error
    await asyncio.sleep(0.01)  # let an upkeep tick run
    await server.stop()
    return server


@pytest.mark.parametrize("shape", [default_shape, fabric_shape], ids=["default", "fabric"])
def test_a_stopped_server_and_its_engine_die_at_del(tok, tmp_path, shape):
    with collector_off():
        pc = shape(fresh_model(tok), tok, tmp_path)
        server = asyncio.run(serve_and_stop(pc))
        store = pc.store
        evictions = store.gpu.stats.evictions + store.cpu.stats.evictions
        assert evictions > 0
        if pc.discovery is not None:
            assert pc.discovery.stats.promotions > 0
            assert pc.discovery.trie.stats.evictions > 0
        else:
            assert store.spills > 0
        refs = {
            "LiveServer": weakref.ref(server),
            "PromptCache": weakref.ref(pc),
            "ModuleCacheStore": weakref.ref(store),
            "TransformerModel": weakref.ref(pc.model),
        }
        if pc.discovery is not None:
            refs["ReuseMiner"] = weakref.ref(pc.discovery)
            refs["TokenRadixTrie"] = weakref.ref(pc.discovery.trie)
        del pc, server, store
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == []


def listener_counts(pc: PromptCache) -> dict:
    store = pc.store
    return {
        "gpu": len(store.gpu._evict_listeners),
        "cpu": len(store.cpu._evict_listeners),
        "fetch_error": len(store._fetch_error_listeners),
        "plan_cache": len(pc._plan_listeners),
    }


def test_stop_removes_what_start_registered(tok):
    model = fresh_model(tok)
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(SCHEMAS[0])
    fresh = listener_counts(PromptCache(model, tok, template=PLAIN_TEMPLATE))

    async def cycle():
        server = LiveServer(pc, ServeOptions(queue_delay_budget_s=None))
        await server.start()
        request = await server.submit(pml_prompt(0), max_new_tokens=2)
        await request.wait()
        await server.stop()

    for _ in range(3):
        asyncio.run(cycle())
        assert listener_counts(pc) == fresh


def test_a_store_forgets_the_listener_of_a_dropped_engine(tok):
    model = fresh_model(tok)
    one = schema_bytes(model, tok)
    store = ModuleCacheStore(one)
    with collector_off():
        pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMAS[0])
        engine = weakref.ref(pc)
        del pc
        assert engine() is None
    live = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    live.register_schema(SCHEMAS[1])  # evicts: the dead engine's listener goes
    assert store.gpu.stats.evictions > 0
    assert [ref() for ref in store.gpu._evict_listeners] == [live._on_store_evict]


def test_scheduler_iterations_leave_no_cyclic_garbage(tok):
    pc = PromptCache(fresh_model(tok), tok, template=PLAIN_TEMPLATE)
    for source in SCHEMAS:
        pc.register_schema(source)
    pc.attach_discovery(DISCOVERY)
    scheduler = ContinuousScheduler(pc, max_inflight=4)
    serial = 0

    def request() -> LiveRequest:
        nonlocal serial
        serial += 1
        raw = serial % 4 == 0
        return LiveRequest(
            request_id=str(serial),
            prompt=raw_prompt(serial) if raw else pml_prompt(serial),
            schema="__raw__" if raw else f"s{serial % len(SCHEMAS)}",
            max_new_tokens=3,
            submitted_at=0.0,
            raw=raw,
        )

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(100):
            outcome = scheduler.iterate(
                [request() for _ in range(scheduler.predicted_free_slots())]
            )
            for _, _, error, _ in outcome.finished:
                assert error is None, error
        gc.collect()
        leaked = sorted(
            {type(obj).__qualname__ for obj in gc.garbage
             if type(obj).__module__.startswith("repro")}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert serial > 100
    assert leaked == []

"""What tier churn costs, in counts rather than clocks.

``tier_churn`` opens ~50 spliced bases a second out of modules it has
just paged in; its wall time drifts with the host, the number of Python
and C calls it makes and the bytes it allocates do not
(``sys.setprofile`` and ``tracemalloc``, as in ``test_decode_step_cost``).
On the benchmark's model shape (four layers) and its schema shape (two
256-token modules):

- ``open_stream`` reads a base's modules' K/V in place, on its first
  fork and every later one: each allocates under 64 KiB (measured: 9.8
  KB; copying both modules into one head_dim-major image, as the second
  fork once did, was ~4.9 MB) and a cold open costs at most 250 call
  events (measured: 159);
- paging one module in allocates under 64 KiB — its key file is the key
  arena's own memory, mapped as it lies — and costs at most 300 call
  events (was ~810) and
  compiles nothing: the catalog record says where the data is, no npy
  header is parsed — and at most 130 (measured: 121; 200 under
  ``REPRO_SANITIZE``, measured 159), none of them in ``hashlib``, once
  its files are in the state their digests last matched at;
- once every module has been encoded, forty-eight round-robin requests
  over a fabric that holds five schemas of twelve encode nothing;
- where nothing churns — a store with no snapshot catalog and no peer
  hook, as on every unbounded engine — ``maintenance`` costs the TTL
  sweep plus a constant however many keys placement tracks (unbounded
  by it, 120 tracked keys cost ~2 k events), and a fast-tier hit a fixed
  count (measured: 21; the demand ledger is 7 of them);
- the cold path — eager ``register_schema`` of the two-module schema,
  one ``forward(..., logits=False)`` per module — costs at most 2,550
  call events and 160 NumPy calls per module (measured: 2,467 and 148,
  the encode filling the module's arenas as its own cache; 2,475 and
  155 when it copied a cache into them; 8,521.5 and 230 before PML text
  was lexed a run at a time and the encode's last layer stopped at its
  K/V).
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from repro.analysis.contracts import contracts_enforced
from repro.cache import engine as engine_module
from repro.cache.engine import PromptCache
from repro.cache import persist
from repro.cache.persist import (
    VerifyLedger,
    load_catalog_entry,
    load_store,
    save_store,
    snapshot_catalog,
)
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.llm import build_model, small_config
from repro.pml.chat import PLAIN_TEMPLATE
from tests.test_fabric_spill import N_SCHEMAS, churn_engine, round_robin

MODULE_TOKENS = 256


@pytest.fixture(scope="module")
def model(tok):
    return build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)


def two_module_schema(name: str = "churn") -> str:
    words = "the quick brown fox jumps over the lazy dog".split()

    def body(offset: int) -> str:
        return " ".join(words[(offset + i) % len(words)] for i in range(300))

    return (
        f'<schema name="{name}"><module name="a">{body(0)}</module>'
        f'<module name="b">{body(4)}</module></schema>'
    )


@pytest.fixture(scope="module")
def snapshot(model, tok, tmp_path_factory):
    """A saved two-module schema: ``(directory, catalog)``."""
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(two_module_schema())
    for name in "ab":
        assert len(pc.store.peek(CacheKey("churn", name)).kv) >= MODULE_TOKENS
    directory = tmp_path_factory.mktemp("churn-snapshot")
    save_store(pc.store, directory)
    return directory, snapshot_catalog(directory)


def profiled(fn):
    """Run ``fn`` under ``sys.setprofile``: ``(result, counts)`` with the
    total of call events and the tallies the pins below name. ``numpy``
    counts calls into NumPy's own functions and array methods."""
    counts = {"all": 0, "memmap_getitem": 0, "compile": 0, "hashlib": 0, "numpy": 0}

    def hook(frame, event, arg):
        if event == "call":
            counts["all"] += 1
            code = frame.f_code
            counts["numpy"] += "numpy" in code.co_filename
            if code.co_name == "__getitem__" and "memmap" in code.co_filename:
                counts["memmap_getitem"] += 1
        elif event == "c_call":
            counts["all"] += 1
            owner = getattr(arg, "__module__", None) or type(
                getattr(arg, "__self__", None)).__module__
            counts["numpy"] += (owner or "").startswith("numpy")
            if getattr(arg, "__name__", "") == "compile":
                counts["compile"] += 1
            elif type(getattr(arg, "__self__", None)).__module__ == "_hashlib":
                counts["hashlib"] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def allocated(fn):
    """``(result, peak bytes fn allocated)`` under ``tracemalloc``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_cold_open_allocates_no_image(model, tok):
    """A two-module base is read in place by its first fork and by every
    later one: no fork copies it."""
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(two_module_schema("open"))
    pc.register_schema(two_module_schema("warm"))
    prompt = '<prompt schema="{}"><a/><b/> what now ?</prompt>'
    pc.open_stream(prompt.format("warm"), max_new_tokens=2).abort()  # imports, first touch
    pc._compiled(prompt.format("open"))  # the plan is not the splice

    def open_stream():
        return pc.open_stream(prompt.format("open"), max_new_tokens=2)

    streams = []
    for _ in range(3):
        stream, peak = allocated(open_stream)
        streams.append(stream)
        assert stream.cached_tokens == len(stream.shared_group.kv) >= 2 * MODULE_TOKENS
        assert peak < 64 * 1024, peak
    assert len({id(stream.shared_group) for stream in streams}) == 1
    for stream in streams:
        stream.abort()
    pc._bases.clear()
    _, counts = profiled(open_stream)
    if not contracts_enforced():
        assert counts["all"] <= 250, counts


def test_a_page_in_allocates_under_64_kib(snapshot, monkeypatch):
    """Its keys are mapped as they lie, not copied into another layout.
    Measured on a trusted ledger: a sparse hash reads 64 KiB blocks."""
    directory, catalog = snapshot
    record = catalog[CacheKey("churn", "a")]
    monkeypatch.setattr(persist, "_wall_clock_ns", lambda: 1 << 62)  # files are old
    ledger = VerifyLedger()
    assert load_catalog_entry(directory, record, ledger=ledger) is not None  # hashed
    kv, peak = allocated(lambda: load_catalog_entry(directory, record, ledger=ledger))
    assert ledger.trusted == 3
    assert kv.is_mapped and kv.nbytes() > 16 * 64 * 1024  # the module is not copied
    assert peak < 64 * 1024, peak


def test_page_in_costs_under_300_calls_and_compiles_nothing(snapshot, monkeypatch):
    directory, catalog = snapshot
    record = catalog[CacheKey("churn", "a")]
    assert load_catalog_entry(directory, record, ledger=VerifyLedger()) is not None  # imports
    # Hashed: the ledger remembers nothing yet.
    monkeypatch.setattr(persist, "_wall_clock_ns", lambda: 1 << 62)  # files are old
    ledger = VerifyLedger()
    kv, counts = profiled(lambda: load_catalog_entry(directory, record, ledger=ledger))
    assert kv is not None and kv.is_mapped and len(kv) >= MODULE_TOKENS
    assert (ledger.hashed, ledger.trusted) == (3, 0)
    assert counts["all"] <= 300 and counts["hashlib"] >= 3, counts
    assert counts["compile"] == 0, counts
    # Trusted: the same files again, in the state they were hashed in.
    kv, counts = profiled(lambda: load_catalog_entry(directory, record, ledger=ledger))
    assert kv is not None and kv.is_mapped and len(kv) >= MODULE_TOKENS
    assert (ledger.hashed, ledger.trusted) == (3, 3)
    assert counts["all"] <= 200 and counts["hashlib"] == 0, counts
    if not contracts_enforced():  # ``from_arenas`` runs its contract checks
        assert counts["all"] <= 130, counts
    assert counts["compile"] == 0, counts


def test_cold_registration_cost_per_module(model, tok):
    """The baseline the cold path is judged against: one eager
    registration, per module encoded."""
    # Imports, first touch, and the tokenizer's word cache.
    PromptCache(model, tok, template=PLAIN_TEMPLATE).register_schema(two_module_schema("warm"))
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    _, counts = profiled(lambda: pc.register_schema(two_module_schema("cold")))
    assert [key.module for key in pc.store.gpu.keys()] == ["a", "b"]
    if not contracts_enforced():  # contracts run per module and per layer
        assert counts["all"] <= 2 * 2_550, counts
        assert counts["numpy"] <= 2 * 160, counts


def test_warm_churn_encodes_nothing(llama, tok, tmp_path, monkeypatch):
    pc = churn_engine(llama, tok, tmp_path / "snap")
    round_robin(pc, rounds=1)  # warm-up: every module has been held once
    calls = []
    original = engine_module.encode_module
    monkeypatch.setattr(
        engine_module, "encode_module",
        lambda *a, **k: calls.append(a[1].name) or original(*a, **k),
    )
    outputs = round_robin(pc, rounds=4)
    assert len(outputs) == 4 * N_SCHEMAS == 48
    assert calls == []
    assert pc.store.fabric_snapshot()["reencodes"] == 0


@pytest.mark.parametrize("ttl_s", [None, 60.0], ids=["no-ttl", "ttl"])
def test_upkeep_and_hits_cost_a_constant_where_nothing_churns(snapshot, ttl_s):
    kv = load_store(snapshot[0]).peek(CacheKey("churn", "a")).kv  # a private copy
    store = ModuleCacheStore(gpu_ttl_s=ttl_s, cpu_ttl_s=ttl_s)
    keys = [CacheKey("tracked", f"m{i}") for i in range(120)]
    for key in keys[:8]:
        store.put(key, kv)
    for key in keys:  # 112 misses: demand placement tracks, nothing to pull
        store.fetch(key)
    store.maintenance()  # first touch
    _, sweep = profiled(store.sweep_expired)
    _, lock_trip = profiled(lambda: store.snapshot_backed(keys[0]))  # one store-lock section
    report, upkeep = profiled(store.maintenance)
    assert report == {"swept": 0, "prefetched": 0, "peer_issued": 0}
    assert upkeep["all"] <= sweep["all"] + lock_trip["all"] + 4, (upkeep, sweep, lock_trip)
    found, hit = profiled(lambda: store.fetch(keys[0]))
    assert found.source == "gpu"
    if not contracts_enforced():  # lockdep wraps both locks in Python
        assert hit["all"] <= 24, hit

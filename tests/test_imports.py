"""Every module in the package imports cleanly and exports what it says."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize(
    "name",
    ["repro", "repro.llm", "repro.pml", "repro.cache", "repro.hw",
     "repro.datasets", "repro.serving", "repro.train", "repro.tokenizer",
     "repro.bench"],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol) or symbol == "PromptCache", (name, symbol)
    # Lazy attributes must also resolve.
    if name == "repro":
        assert repro.PromptCache is not None


def test_lazy_exports_resolve():
    """``repro.analysis`` and ``repro.server`` resolve their lint-side /
    load-generator names on first use; every public name stays importable."""
    for name in ("repro.analysis", "repro.server"):
        module = importlib.import_module(name)
        for symbol in module.__all__:
            assert getattr(module, symbol) is not None, (name, symbol)


def test_serve_path_import_skips_lint_engine_and_loadgen():
    """What a server start pays for: importing the serve path must not
    load the AST lint engine or the load generator (fresh interpreter —
    this process has long since imported everything)."""
    program = (
        "import sys\n"
        "import repro.cache.engine, repro.server, repro.fabric, repro.reuse\n"
        "heavy = ['repro.analysis.engine', 'repro.analysis.flow',\n"
        "         'repro.analysis.rules', 'repro.server.loadgen']\n"
        "print([name for name in heavy if name in sys.modules])\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_count_sanity():
    # The repo-scale guarantee: the package keeps its subsystem breadth.
    assert len(MODULES) >= 45


def test_option_surface_is_pinned():
    """Every option doubles the configurations to cover, so adding one is
    a reviewed, one-line change here: the exact field set of
    ``ServeOptions`` and parameter lists of ``PromptCache.__init__``,
    ``PromptCache.register_schema``, ``ModuleCacheStore.__init__``,
    ``ContinuousScheduler.__init__``, ``ClusterWorker.__init__`` and the
    snapshot functions ``save_store``, ``load_store`` and
    ``load_catalog_entry`` — and ``PromptCache``'s serving entry points."""
    import dataclasses
    import inspect

    from repro.cache.engine import PromptCache
    from repro.cache.persist import load_catalog_entry, load_store, save_store
    from repro.cache.storage import ModuleCacheStore
    from repro.cluster import ClusterWorker
    from repro.server import ContinuousScheduler, ServeOptions

    assert [f.name for f in dataclasses.fields(ServeOptions)] == [
        "max_queue_depth", "queue_delay_budget_s", "max_inflight",
        "prefill_chunk_tokens", "store_sweep_interval_s",
    ]
    assert list(inspect.signature(ContinuousScheduler.__init__).parameters)[1:] == [
        "pc", "max_inflight", "prefill_chunk_tokens", "clock", "maintenance",
    ]
    assert list(inspect.signature(PromptCache.__init__).parameters)[1:] == [
        "model", "tokenizer", "store", "template", "kv_codec",
    ]
    assert list(inspect.signature(PromptCache.register_schema).parameters)[1:] == [
        "source", "eager",
    ]
    assert list(inspect.signature(ModuleCacheStore.__init__).parameters)[1:] == [
        "gpu_capacity_bytes", "cpu_capacity_bytes", "policy", "gpu_ttl_s",
        "cpu_ttl_s", "snapshot_dir", "prefetch_bytes_per_s", "clock",
    ]
    assert list(inspect.signature(save_store).parameters) == ["store", "directory"]
    assert list(inspect.signature(load_store).parameters) == ["directory", "store"]
    assert list(inspect.signature(load_catalog_entry).parameters) == [
        "directory", "record", "ledger",
    ]
    assert list(inspect.signature(ClusterWorker.__init__).parameters)[1:] == [
        "name", "model", "tokenizer", "template", "options", "store",
        "exporter_host", "exporter_port", "fetcher", "heartbeat_interval_s",
        "discovery",
    ]
    # One entry point per job: whole-request serves and resumable streams.
    assert {
        name for name in dir(PromptCache) if name.startswith(("serve", "open_"))
    } == {"serve", "serve_batch", "serve_text", "open_stream", "open_text_stream"}
    assert not hasattr(PromptCache, "generate")

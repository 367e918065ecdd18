"""Command-line interface: ``python -m repro <command>``.

Commands
--------
inspect    parse a schema file, print its position layout and lint report
analyze    run the repo's own AST lint rules (repro.analysis) over src/
serve      serve a PML prompt against a schema with a seeded engine
serve-live run the async serving runtime under a seeded open-loop trace
serve-cluster  run N sharded workers behind the cache-affinity router
               (``--attach-snapshot DIR`` gives every worker's store a
               shared warm snapshot to page modules in from)
warm       encode a schema set, time each registration and (optionally)
           write a memmap-ready v2 snapshot for later attach
loadgen    synthesize a serving trace and print its shape (``--cluster N``
           previews its placement across a worker ring)
reuse-stats  run a seeded raw-text workload through reuse discovery and
             print trie/miner statistics (``serve-live --discover`` runs
             the same traffic through the async runtime)
fabric-stats run a seeded schema workload through a bounded module
             store and print tier/placement/prefetch statistics
tokenize   show how the shared tokenizer splits a text
ttft       modeled TTFT for a paper-shape model on a paper device
datasets   list the synthetic evaluation suite
devices    list the modeled hardware testbeds
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prompt Cache (MLSys 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="layout + lint a schema file")
    inspect.add_argument("schema", type=Path)
    inspect.add_argument("--model", default="llama2-7b", help="paper model for budgets")

    from repro.analysis.cli import add_arguments as add_analyze_arguments

    analyze = sub.add_parser(
        "analyze",
        help="lint the repo's own source: guarded-by, async-hygiene, "
             "broad-except, kv-contract",
    )
    add_analyze_arguments(analyze)

    serve = sub.add_parser("serve", help="serve a prompt against a schema")
    serve.add_argument("schema", type=Path)
    serve.add_argument("prompt", help="prompt PML text or a file path")
    serve.add_argument("--arch", default="llama", choices=["llama", "falcon", "mpt", "gpt2"])
    serve.add_argument("--size", default="small", choices=["tiny", "small"])
    serve.add_argument("--max-new-tokens", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--compare", action="store_true", help="also run the baseline")

    from repro.server.scheduler import MAX_INFLIGHT, PREFILL_CHUNK_TOKENS

    live = sub.add_parser(
        "serve-live",
        help="drive the real engine through the async serving runtime",
    )
    live.add_argument("--arch", default="llama", choices=["llama", "falcon", "mpt", "gpt2"])
    live.add_argument("--size", default="tiny", choices=["tiny", "small"])
    live.add_argument("--schemas", type=_positive(int), default=3,
                      help="schema pool size")
    live.add_argument("--module-tokens", type=_positive(int), default=48)
    live.add_argument("--uncached-tokens", type=_positive(int), default=10)
    live.add_argument("--decode-tokens", type=_positive(int), default=4)
    live.add_argument("--rate", type=_positive(float), default=40.0,
                      help="arrival rate (req/s)")
    live.add_argument("--duration", type=_positive(float), default=2.0,
                      help="trace length (s)")
    live.add_argument("--seed", type=int, default=0)
    live.add_argument("--max-queue", type=int, default=32)
    live.add_argument("--delay-budget", type=float, default=1.0,
                      help="admission queue-delay budget (s)")
    live.add_argument("--max-inflight", type=_positive(int), default=MAX_INFLIGHT,
                      help="concurrent decoding sequences")
    live.add_argument("--prefill-chunk", type=_positive(int),
                      default=PREFILL_CHUNK_TOKENS,
                      help="prefill token budget per iteration")
    live.add_argument("--deadline", type=float, default=None,
                      help="per-request deadline (s)")
    live.add_argument("--gpu-capacity-kb", type=int, default=None,
                      help="module-store GPU tier budget (forces evictions)")
    live.add_argument("--format", default="summary",
                      choices=["summary", "prom", "json"],
                      help="metrics output format")
    live.add_argument("--discover", action="store_true",
                      help="serve schema-free raw text instead of PML and "
                           "mine shared prefixes into discovered modules "
                           "(outputs stay byte-identical to no-discovery)")
    live.add_argument("--shared-tokens", type=_positive(int), default=48,
                      help="[--discover] shared preamble length (tokens)")
    live.add_argument("--min-hits", type=_positive(int), default=3,
                      help="[--discover] observations before promotion")
    live.add_argument("--min-tokens", type=_positive(int), default=16,
                      help="[--discover] minimum promoted segment length")

    cluster = sub.add_parser(
        "serve-cluster",
        help="drive N sharded workers behind the consistent-hash router",
    )
    cluster.add_argument("--workers", type=_positive(int), default=2)
    cluster.add_argument("--arch", default="llama", choices=["llama", "falcon", "mpt", "gpt2"])
    cluster.add_argument("--size", default="tiny", choices=["tiny", "small"])
    cluster.add_argument("--schemas", type=_positive(int), default=3)
    cluster.add_argument("--module-tokens", type=_positive(int), default=48)
    cluster.add_argument("--uncached-tokens", type=_positive(int), default=10)
    cluster.add_argument("--decode-tokens", type=_positive(int), default=4)
    cluster.add_argument("--rate", type=_positive(float), default=40.0)
    cluster.add_argument("--duration", type=_positive(float), default=2.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--max-queue", type=int, default=32)
    cluster.add_argument("--spill-depth", type=_positive(int), default=8,
                         help="home queue depth beyond which requests spill")
    cluster.add_argument("--vnodes", type=_positive(int), default=64)
    cluster.add_argument("--deadline", type=float, default=None)
    cluster.add_argument("--attach-snapshot", type=Path, default=None, metavar="DIR",
                         help="catalog a v2 snapshot (from `repro warm --out`) "
                              "in every worker's store: modules page in on "
                              "first use as read-only mappings, one resident "
                              "copy per host, and each worker full-hashes "
                              "the payloads in the background")
    cluster.add_argument("--fabric-gpu-kb", type=_positive(int), default=None,
                         help="fast-tier capacity per worker (forces "
                              "demotions/drops)")
    cluster.add_argument("--format", default="summary",
                         choices=["summary", "prom", "json"])

    warm = sub.add_parser(
        "warm",
        help="encode schemas and time each one; optionally snapshot them",
    )
    warm.add_argument("schemas", type=Path, nargs="*",
                      help="PML schema files to warm (besides --synthetic)")
    warm.add_argument("--synthetic", type=_positive(int), default=None, metavar="N",
                      help="also warm the N-schema synthetic serving workload "
                           "(same generator as serve-cluster)")
    warm.add_argument("--out", type=Path, default=None, metavar="DIR",
                      help="write the warmed store as a v2 snapshot")
    warm.add_argument("--arch", default="llama", choices=["llama", "falcon", "mpt", "gpt2"])
    warm.add_argument("--size", default="tiny", choices=["tiny", "small"])
    warm.add_argument("--seed", type=int, default=0)
    warm.add_argument("--module-tokens", type=_positive(int), default=48)

    loadgen = sub.add_parser(
        "loadgen", help="synthesize a seeded serving trace and print its shape"
    )
    loadgen.add_argument("--schemas", type=_positive(int), default=4)
    loadgen.add_argument("--module-tokens", type=_positive(int), default=5000)
    loadgen.add_argument("--rate", type=_positive(float), default=1.0)
    loadgen.add_argument("--duration", type=_positive(float), default=60.0)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--jsonl", action="store_true",
                         help="emit the trace as JSON lines instead of a summary")
    loadgen.add_argument("--cluster", type=_positive(int), default=None, metavar="N",
                         help="preview the trace's placement across an "
                              "N-worker consistent-hash ring")
    loadgen.add_argument("--vnodes", type=_positive(int), default=64)

    reuse = sub.add_parser(
        "reuse-stats",
        help="run a seeded raw-text workload through reuse discovery and "
             "print the trie/miner statistics",
    )
    reuse.add_argument("--arch", default="llama", choices=["llama", "falcon", "mpt", "gpt2"])
    reuse.add_argument("--size", default="tiny", choices=["tiny", "small"])
    reuse.add_argument("--requests", type=_positive(int), default=12)
    reuse.add_argument("--shared-tokens", type=_positive(int), default=48,
                       help="shared preamble length (tokens)")
    reuse.add_argument("--suffix-tokens", type=_positive(int), default=12,
                       help="unique per-request suffix length (tokens)")
    reuse.add_argument("--min-hits", type=_positive(int), default=3)
    reuse.add_argument("--min-tokens", type=_positive(int), default=16)
    reuse.add_argument("--max-new-tokens", type=_positive(int), default=4)
    reuse.add_argument("--seed", type=int, default=0)
    reuse.add_argument("--format", default="summary", choices=["summary", "json"])

    fabric = sub.add_parser(
        "fabric-stats",
        help="run a seeded schema workload through the tiered cache fabric "
             "and print tier / placement / prefetch statistics",
    )
    fabric.add_argument("--arch", default="llama", choices=["llama", "falcon", "mpt", "gpt2"])
    fabric.add_argument("--size", default="tiny", choices=["tiny", "small"])
    fabric.add_argument("--schemas", type=_positive(int), default=4)
    fabric.add_argument("--module-tokens", type=_positive(int), default=48)
    fabric.add_argument("--requests", type=_positive(int), default=24)
    fabric.add_argument("--max-new-tokens", type=_positive(int), default=2)
    fabric.add_argument("--gpu-capacity-kb", type=_positive(int), default=None,
                        help="fast-tier budget (small values force "
                             "demote/drop placement decisions)")
    fabric.add_argument("--snapshot", type=Path, default=None, metavar="DIR",
                        help="v2 snapshot (from `repro warm --out`) to use "
                             "as the lazily paged-in mmap tier")
    fabric.add_argument("--seed", type=int, default=0)
    fabric.add_argument("--format", default="summary", choices=["summary", "json"])

    tokenize = sub.add_parser("tokenize", help="tokenize text with the shared BPE")
    tokenize.add_argument("text")

    ttft = sub.add_parser("ttft", help="modeled TTFT on a paper device")
    ttft.add_argument("--model", default="llama2-7b")
    ttft.add_argument("--device", default="rtx-4090")
    ttft.add_argument("--tokens", type=int, default=5000)
    ttft.add_argument("--uncached", type=int, default=100)
    ttft.add_argument("--storage", default="gpu", choices=["gpu", "cpu"])

    sub.add_parser("datasets", help="list the synthetic evaluation suite")
    sub.add_parser("devices", help="list the modeled devices")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return {
        "inspect": _cmd_inspect,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
        "serve-live": _cmd_serve_live,
        "serve-cluster": _cmd_serve_cluster,
        "warm": _cmd_warm,
        "loadgen": _cmd_loadgen,
        "reuse-stats": _cmd_reuse_stats,
        "fabric-stats": _cmd_fabric_stats,
        "tokenize": _cmd_tokenize,
        "ttft": _cmd_ttft,
        "datasets": _cmd_datasets,
        "devices": _cmd_devices,
    }[args.command](args)


def _cmd_inspect(args) -> int:
    from repro.cache.layout import layout_schema
    from repro.llm.config import paper_config
    from repro.pml.lint import lint_schema
    from repro.pml.schema import Schema
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    schema = Schema.parse(args.schema.read_text())
    layout = layout_schema(schema, tok)
    print(f"schema {schema.name!r}: {len(layout.modules)} modules, "
          f"{layout.total_length} positions")
    print(f"{'module':<24} {'start':>6} {'end':>6} {'tokens':>6}  params")
    for name in layout.order:
        module = layout.module(name)
        params = ",".join(module.params) or "-"
        print(f"{name:<24} {module.span_start:>6} {module.span_end:>6} "
              f"{len(module.token_ids):>6}  {params}")
    diagnostics = lint_schema(schema, tok, paper_config(args.model))
    if diagnostics:
        print("\nlint:")
        for diag in diagnostics:
            print(f"  {diag}")
    else:
        print("\nlint: clean")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.cli import run

    return run(args)


def _cmd_serve(args) -> int:
    from repro.cache.engine import PromptCache
    from repro.llm import build_model, small_config, tiny_config
    from repro.pml.chat import PLAIN_TEMPLATE
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    make = tiny_config if args.size == "tiny" else small_config
    model = build_model(make(args.arch, vocab_size=tok.vocab_size), seed=args.seed)
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(args.schema.read_text())

    prompt = args.prompt
    if Path(prompt).exists():
        prompt = Path(prompt).read_text()
    result = pc.serve(prompt, max_new_tokens=args.max_new_tokens)
    print(f"cached {result.cached_tokens} / uncached {result.uncached_tokens} tokens")
    print(f"TTFT {1000 * result.ttft_s:.1f} ms "
          f"(splice {1000 * result.splice_s:.1f} + suffix {1000 * result.suffix_s:.1f})")
    print(f"output: {result.text!r}")
    if args.compare:
        baseline = pc.baseline(prompt, max_new_tokens=args.max_new_tokens)
        print(f"baseline TTFT {1000 * baseline.ttft_s:.1f} ms "
              f"({baseline.ttft_s / result.ttft_s:.1f}x slower)")
    return 0


def _install_drain_handlers(loop, stop) -> list:
    """SIGTERM/SIGINT → graceful drain: ``stop(drain=True)`` finishes
    accepted work while new submissions are refused (the load loop sees
    ``ServerClosed`` and settles what is in flight). Returns the signals
    actually hooked so the caller can unhook them."""
    import signal

    hooked = []
    stopping: list = []

    def trigger() -> None:
        if not stopping:  # second signal: drain already underway
            stopping.append(loop.create_task(stop(True)))

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, trigger)
        except (NotImplementedError, RuntimeError):  # non-POSIX loop
            continue
        hooked.append(sig)
    return hooked


def _remove_drain_handlers(loop, hooked) -> None:
    for sig in hooked:
        loop.remove_signal_handler(sig)


def _cmd_serve_live(args) -> int:
    import asyncio

    from repro.cache.engine import PromptCache
    from repro.cache.storage import ModuleCacheStore
    from repro.llm import build_model, small_config, tiny_config
    from repro.pml.chat import PLAIN_TEMPLATE
    from repro.serving.traces import SchemaProfile, synthesize_trace
    from repro.server import LiveServer, ServeOptions, build_workload, run_open_loop
    from repro.server.loadgen import build_raw_prompts, run_raw_open_loop
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    make = tiny_config if args.size == "tiny" else small_config
    model = build_model(make(args.arch, vocab_size=tok.vocab_size), seed=args.seed)
    store = ModuleCacheStore(
        gpu_capacity_bytes=(
            args.gpu_capacity_kb * 1024 if args.gpu_capacity_kb else None
        )
    )
    pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    if args.discover:
        from repro.reuse import DiscoveryConfig

        pc.attach_discovery(DiscoveryConfig(
            min_hits=args.min_hits, min_tokens=args.min_tokens
        ))

    profiles = [
        SchemaProfile(
            name=f"schema{i}",
            module_tokens=args.module_tokens,
            uncached_mean=args.uncached_tokens,
            decode_mean=args.decode_tokens,
            weight=1.0 / (i + 1),
        )
        for i in range(args.schemas)
    ]
    workload = build_workload(profiles, tok, seed=args.seed)
    workload.register(pc)
    trace = synthesize_trace(profiles, args.rate, args.duration, seed=args.seed)

    options = ServeOptions(
        max_queue_depth=args.max_queue,
        queue_delay_budget_s=args.delay_budget,
        max_inflight=args.max_inflight,
        prefill_chunk_tokens=args.prefill_chunk,
    )
    server = LiveServer(pc, options)

    async def run():
        loop = asyncio.get_running_loop()
        hooked = _install_drain_handlers(loop, server.stop)
        try:
            async with server:
                if args.discover:
                    prompts = build_raw_prompts(
                        tok, len(trace),
                        shared_tokens=args.shared_tokens,
                        suffix_tokens=args.uncached_tokens,
                        seed=args.seed,
                    )
                    return await run_raw_open_loop(
                        server, prompts,
                        interval_s=args.duration / max(1, len(trace)),
                        max_new_tokens=args.decode_tokens,
                        deadline_s=args.deadline,
                    )
                return await run_open_loop(
                    server, workload, trace, deadline_s=args.deadline
                )
        finally:
            _remove_drain_handlers(loop, hooked)

    report = asyncio.run(run())
    if args.format == "prom":
        print(server.prometheus())
        return 0
    if args.format == "json":
        import json

        print(json.dumps(server.snapshot(), indent=2, sort_keys=True))
        return 0
    gpu = pc.store.gpu.stats
    print(f"trace: {len(trace)} requests over {args.duration:.1f}s "
          f"(rate {args.rate:g}/s, seed {args.seed})")
    print(f"completed {report.completed}  rejected {report.rejected}  "
          f"expired {report.expired}  failed {report.failed}")
    print(f"TTFT p50 {1000 * report.ttft_percentile(50):.1f} ms   "
          f"p95 {1000 * report.ttft_percentile(95):.1f} ms")
    print(f"throughput {report.throughput_rps:.1f} req/s over {report.wall_s:.2f}s")
    print(f"cached token fraction {report.cached_token_fraction:.2f}  "
          f"store hit-rate {gpu.hit_rate:.2f}  evictions {gpu.evictions}")
    if args.discover and pc.discovery is not None:
        snap = pc.discovery.snapshot()
        print(f"discovery: {snap['modules']} module(s) from "
              f"{snap['promotions']} promotion(s), trie {snap['trie_nodes']} "
              f"nodes / {snap['trie_tokens']} tokens, "
              f"demotions {snap['demotions']}")
    return 0


def _cmd_serve_cluster(args) -> int:
    import asyncio
    import json

    from repro.cache.storage import ModuleCacheStore
    from repro.cluster import ClusterRouter, ClusterWorker
    from repro.cluster.loadgen import run_cluster_open_loop
    from repro.llm import build_model, small_config, tiny_config
    from repro.pml.chat import PLAIN_TEMPLATE
    from repro.server import ServeOptions, build_workload
    from repro.serving.traces import SchemaProfile, synthesize_trace
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    make = tiny_config if args.size == "tiny" else small_config
    # One set of weights shared read-only by every in-process worker:
    # identical engines guarantee byte-identical outputs on failover.
    model = build_model(make(args.arch, vocab_size=tok.vocab_size), seed=args.seed)

    profiles = [
        SchemaProfile(
            name=f"schema{i}",
            module_tokens=args.module_tokens,
            uncached_mean=args.uncached_tokens,
            decode_mean=args.decode_tokens,
            weight=1.0 / (i + 1),  # skewed popularity, like real schema mixes
        )
        for i in range(args.schemas)
    ]
    workload = build_workload(profiles, tok, seed=args.seed)
    trace = synthesize_trace(profiles, args.rate, args.duration, seed=args.seed)

    options = ServeOptions(
        max_queue_depth=args.max_queue,
        queue_delay_budget_s=None,
    )
    attach = args.attach_snapshot
    fast_bytes = args.fabric_gpu_kb * 1024 if args.fabric_gpu_kb else None
    workers = [
        ClusterWorker(
            f"w{i}", model, tok, template=PLAIN_TEMPLATE, options=options,
            store=ModuleCacheStore(fast_bytes, snapshot_dir=attach),
        )
        for i in range(args.workers)
    ]
    router = ClusterRouter(
        workers, vnodes=args.vnodes, spill_queue_depth=args.spill_depth
    )
    for source in workload.schema_sources.values():
        router.register_schema(source)

    async def run():
        loop = asyncio.get_running_loop()
        hooked = _install_drain_handlers(loop, router.stop)
        try:
            async with router:
                result = await run_cluster_open_loop(
                    router, workload, trace, deadline_s=args.deadline
                )
                # Snapshot while the workers are still up — post-stop
                # health would read "dead" even for a clean run.
                return result, router.snapshot(), router.prometheus()
        finally:
            _remove_drain_handlers(loop, hooked)

    report, snap, prom_text = asyncio.run(run())
    if args.format == "prom":
        print(prom_text)
        return 0
    if args.format == "json":
        print(json.dumps({"report": {
            "completed": report.completed, "rejected": report.rejected,
            "expired": report.expired, "failed": report.failed,
            "failures": report.failures, "wall_s": report.wall_s,
        }, **snap}, indent=2, sort_keys=True, default=str))
        return 0
    gauges = snap["router"]["gauges"]
    print(f"cluster: {args.workers} worker(s), {len(trace)} requests over "
          f"{args.duration:.1f}s (rate {args.rate:g}/s, seed {args.seed})")
    print(f"completed {report.completed}  rejected {report.rejected}  "
          f"expired {report.expired}  failed {report.failed}")
    print(f"TTFT p50 {1000 * report.ttft_percentile(50):.1f} ms   "
          f"p95 {1000 * report.ttft_percentile(95):.1f} ms   "
          f"throughput {report.throughput_rps:.1f} req/s")
    counters = snap["router"]["counters"]
    placed = {k: v for k, v in counters.items() if k.startswith("cluster_requests_total")}
    for series in sorted(placed):
        print(f"  {series} = {placed[series]:g}")
    hits = gauges.get('cluster_peer_fetch_total{outcome="hit"}', 0.0)
    misses = gauges.get('cluster_peer_fetch_total{outcome="miss"}', 0.0)
    avoided = gauges.get("cluster_reencode_avoided_tokens_total", 0.0)
    print(f"peer fetches: {hits:g} hit / {misses:g} miss; "
          f"re-encode avoided {avoided:g} tokens")
    shares = ", ".join(f"{n}={s:.2f}" for n, s in sorted(snap["ring"].items()))
    print(f"ring ownership: {shares}")
    if attach is not None or fast_bytes is not None:
        fab = workers[0].store.fabric_snapshot()
        placement = fab["placement"]
        prefetch = fab["prefetch"]
        print(f"fabric (w0): {fab['catalog_entries']} cataloged, "
              f"{fab['spills']} spilled, {fab['reencodes']} re-encode(s), "
              f"placement +{placement['promotions']}/-{placement['demotions']}"
              f"/x{placement['drops']}, "
              f"prefetch planned {prefetch['planned']} "
              f"(budget-denied {prefetch['skipped_budget']})")
    if attach is not None:
        from repro.cache.persist import resident_snapshot_bytes

        mapped = workers[0].store.mapped_bytes()
        resident = resident_snapshot_bytes(workers[0].store)
        resident_text = f"{resident / 1024:.0f}" if resident is not None else "?"
        print(f"snapshot (w0): {mapped / 1024:.0f} KiB mapped (one resident "
              f"copy shared host-wide), {resident_text} KiB paged in")
    return 0


def _cmd_warm(args) -> int:
    import time

    from repro.cache.engine import PromptCache
    from repro.cache.persist import save_store
    from repro.llm import build_model, small_config, tiny_config
    from repro.pml.chat import PLAIN_TEMPLATE
    from repro.server import build_workload
    from repro.serving.traces import SchemaProfile
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    sources = [path.read_text() for path in args.schemas]
    if args.synthetic:
        profiles = [
            SchemaProfile(
                name=f"schema{i}",
                module_tokens=args.module_tokens,
                uncached_mean=10,
                decode_mean=4,
                weight=1.0 / (i + 1),
            )
            for i in range(args.synthetic)
        ]
        workload = build_workload(profiles, tok, seed=args.seed)
        sources.extend(workload.schema_sources.values())
    if not sources:
        print("nothing to warm: pass schema files and/or --synthetic N",
              file=sys.stderr)
        return 2

    make = tiny_config if args.size == "tiny" else small_config
    model = build_model(make(args.arch, vocab_size=tok.vocab_size), seed=args.seed)
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    per_schema: list[tuple[str, float]] = []
    for source in sources:
        started = time.perf_counter()
        schema = pc.register_schema(source)
        per_schema.append((schema.name, time.perf_counter() - started))
    elapsed = sum(wall_s for _, wall_s in per_schema)

    saved = None
    if args.out is not None:
        saved = save_store(pc.store, args.out)
    modules = len(pc.store.gpu.entries) + len(pc.store.cpu.entries)
    print(f"warmed {len(per_schema)} schema(s), {modules} module variant(s), "
          f"{pc.store.total_bytes() / 1024:.0f} KiB in {elapsed:.2f}s")
    for name, wall_s in per_schema:
        print(f"  {name:<16} {wall_s:8.3f}s")
    if saved is not None:
        print(f"snapshot: {args.out} ({saved.summary()}, format v2 — attach "
              f"with `repro serve-cluster --attach-snapshot {args.out}`)")
    return 0


def _cmd_loadgen(args) -> int:
    import json

    import numpy as np

    from repro.serving.traces import SchemaProfile, synthesize_trace

    profiles = [
        SchemaProfile(
            name=f"schema{i}",
            module_tokens=args.module_tokens,
            uncached_mean=100,
            decode_mean=64,
            weight=1.0 / (i + 1),
        )
        for i in range(args.schemas)
    ]
    trace = synthesize_trace(profiles, args.rate, args.duration, seed=args.seed)
    if args.jsonl:
        for request in trace:
            print(json.dumps(request.__dict__))
        return 0
    if args.cluster is not None:
        from repro.cluster.ring import HashRing

        ring = HashRing([f"w{i}" for i in range(args.cluster)], vnodes=args.vnodes)
        placement: dict[str, int] = {}
        for request in trace:
            # The loadgen workload imports one "context" module per
            # schema, so the routing key matches the router's.
            home = ring.node_for(f"{request.schema}|context")
            placement[home] = placement.get(home, 0) + 1
        shares = ring.ownership_share()
        print(f"placement preview across {args.cluster} worker(s), "
              f"{args.vnodes} vnodes:")
        for name in sorted(shares):
            print(f"  {name:<6} {placement.get(name, 0):>5} requests "
                  f"(key-space share {shares[name]:.2f})")
        return 0
    print(f"{len(trace)} requests over {args.duration:g}s "
          f"(target rate {args.rate:g}/s, seed {args.seed})")
    by_schema: dict[str, int] = {}
    for request in trace:
        by_schema[request.schema] = by_schema.get(request.schema, 0) + 1
    for name in sorted(by_schema):
        print(f"  {name:<12} {by_schema[name]:>5} requests")
    if trace:
        gaps = np.diff([r.arrival_s for r in trace])
        if len(gaps):
            print(f"inter-arrival: mean {gaps.mean():.3f}s  p95 "
                  f"{float(np.percentile(gaps, 95)):.3f}s")
        cached = np.array([r.cached_tokens for r in trace])
        uncached = np.array([r.uncached_tokens for r in trace])
        print(f"tokens/request: cached {cached.mean():.0f}  "
              f"uncached {uncached.mean():.0f}")
    return 0


def _cmd_reuse_stats(args) -> int:
    import json

    from repro.cache.engine import PromptCache
    from repro.llm import build_model, small_config, tiny_config
    from repro.pml.chat import PLAIN_TEMPLATE
    from repro.reuse import DiscoveryConfig, analyze_batch
    from repro.server.loadgen import build_raw_prompts
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    make = tiny_config if args.size == "tiny" else small_config
    model = build_model(make(args.arch, vocab_size=tok.vocab_size), seed=args.seed)
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.attach_discovery(DiscoveryConfig(
        min_hits=args.min_hits, min_tokens=args.min_tokens
    ))
    prompts = build_raw_prompts(
        tok, args.requests,
        shared_tokens=args.shared_tokens,
        suffix_tokens=args.suffix_tokens,
        seed=args.seed,
    )
    dedup = analyze_batch([tok.encode(p) for p in prompts])
    cached = uncached = 0
    for text in prompts:
        result = pc.serve_text(text, max_new_tokens=args.max_new_tokens)
        cached += result.cached_tokens
        uncached += result.uncached_tokens
    snap = pc.discovery.snapshot()
    hit_rate = cached / (cached + uncached) if cached + uncached else 0.0
    if args.format == "json":
        snap["dedup_potential"] = dedup.potential
        snap["discovered_hit_rate"] = hit_rate
        snap["discovered_modules"] = [
            {"name": m.name, "start": m.start, "end": m.end}
            for m in pc.discovered_modules()
        ]
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0
    print(f"{args.requests} raw request(s), shared preamble "
          f"~{args.shared_tokens} tokens (seed {args.seed})")
    print(f"dedup potential (pre-flight): {dedup.potential:.2f} "
          f"({dedup.shared_tokens}/{dedup.total_tokens} tokens shared)")
    print(f"trie: {snap['trie_nodes']} nodes, {snap['trie_tokens']} tokens, "
          f"{snap['trie_splits']} splits, {snap['trie_evictions']} evictions")
    print(f"miner: {snap['promotions']} promotion(s), {snap['demotions']} "
          f"demotion(s), {snap['failed_promotions']} failed, "
          f"{snap['modules']} live module(s)")
    for module in pc.discovered_modules():
        print(f"  {module.name:<10} [{module.start:>4}, {module.end:>4})  "
              f"{module.end - module.start} tokens")
    print(f"discovered-module hit rate: {hit_rate:.2f} "
          f"({cached} cached / {uncached} uncached prompt tokens)")
    if snap["last_promotion_error"]:
        print(f"last promotion error: {snap['last_promotion_error']}")
    return 0


def _cmd_fabric_stats(args) -> int:
    import json

    from repro.cache.engine import PromptCache
    from repro.cache.storage import ModuleCacheStore
    from repro.llm import build_model, small_config, tiny_config
    from repro.pml.chat import PLAIN_TEMPLATE
    from repro.server import build_workload
    from repro.serving.traces import SchemaProfile
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    make = tiny_config if args.size == "tiny" else small_config
    model = build_model(make(args.arch, vocab_size=tok.vocab_size), seed=args.seed)
    store = ModuleCacheStore(
        gpu_capacity_bytes=(
            args.gpu_capacity_kb * 1024 if args.gpu_capacity_kb else None
        ),
        snapshot_dir=str(args.snapshot) if args.snapshot else None,
    )
    pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    profiles = [
        SchemaProfile(
            name=f"schema{i}",
            module_tokens=args.module_tokens,
            uncached_mean=10,
            decode_mean=args.max_new_tokens,
            weight=1.0 / (i + 1),
        )
        for i in range(args.schemas)
    ]
    workload = build_workload(profiles, tok, seed=args.seed)
    workload.register(pc)
    # Round-robin over the schema pool with a maintenance tick between
    # requests — the offline analogue of the serving loop's idle hook, so
    # sweeps, placement decisions, and prefetch planning all exercise.
    for i in range(args.requests):
        schema = profiles[i % len(profiles)].name
        pc.serve(
            workload.prompt_for(schema, i, 10),
            max_new_tokens=args.max_new_tokens,
        )
        store.maintenance()
    snap = store.fabric_snapshot()
    if args.format == "json":
        print(json.dumps(snap, indent=2, sort_keys=True, default=str))
        return 0
    print(f"{args.requests} request(s) over {args.schemas} schema(s) "
          f"(seed {args.seed}, fast tier "
          f"{args.gpu_capacity_kb or 'unbounded'} KiB)")
    for tier in ("gpu", "cpu", "snapshot", "peer"):
        stats = snap["tiers"][tier]
        print(f"  {tier:<9} hits {stats['hits']:>5}  misses {stats['misses']:>5}  "
              f"evictions {stats['evictions']:>3}")
    placement = snap["placement"]
    print(f"placement: {placement['promotions']} promotion(s), "
          f"{placement['demotions']} demotion(s), {placement['drops']} drop(s), "
          f"{placement['tracked_keys']} tracked key(s)")
    print(f"spill: {snap['spills']} module(s) written back "
          f"({snap['spill_bytes']} bytes, {snap['spill_ms_total']:.1f} ms), "
          f"{snap['spill_errors']} error(s)")
    print(f"page-in verify: {snap['verify_hashed']} file(s) hashed, "
          f"{snap['verify_trusted']} trusted unchanged, "
          f"{snap['verify_failed']} refused")
    prefetch = snap["prefetch"]
    print(f"prefetch: {prefetch['planned']} planned, "
          f"{snap['prefetch_page_ins']} paged in, "
          f"{prefetch['skipped_budget']} budget-denied, "
          f"{prefetch['skipped_cold']} cold-skipped "
          f"({prefetch['budget_granted_bytes']:.0f} bytes granted)")
    costs = snap["costs"]
    print(f"costs: peer RTT {1000 * costs['peer_rtt_s']:.2f} ms, "
          f"encode {1e6 * costs['reencode_s_per_token']:.1f} us/token "
          f"({snap['first_encodes']} first, {snap['reencodes']} re-encode(s)), "
          f"{snap['catalog_entries']} snapshot entr(ies) cataloged")
    return 0


def _cmd_tokenize(args) -> int:
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    ids = tok.encode(args.text)
    print(f"{len(ids)} tokens:")
    print(" ".join(f"[{tok.token_of(i)}]" for i in ids))
    return 0


def _cmd_ttft(args) -> int:
    from repro.hw.device import device
    from repro.hw.latency import baseline_ttft, cached_ttft
    from repro.llm.config import paper_config

    cfg = paper_config(args.model)
    dev = device(args.device)
    base = baseline_ttft(cfg, args.tokens, dev)
    cached = cached_ttft(cfg, args.tokens, args.uncached, dev, args.storage)
    print(f"{cfg.name} @ {dev.name}, {args.tokens} tokens "
          f"({args.uncached} uncached, modules in {args.storage} memory)")
    print(f"baseline TTFT: {1000 * base.total_s:8.1f} ms")
    print(f"cached TTFT:   {1000 * cached.total_s:8.1f} ms  "
          f"(copy {1000 * cached.copy_s:.1f} ms)")
    print(f"speedup:       {base.total_s / cached.total_s:8.1f}x")
    return 0


def _cmd_datasets(args) -> int:
    from repro.datasets.suite import DATASETS

    print(f"{'dataset':<22} {'category':<16} {'metric':<8} headline")
    for name, spec in sorted(DATASETS.items(), key=lambda kv: (kv[1].category, kv[0])):
        print(f"{name:<22} {spec.category:<16} {spec.metric:<8} "
              f"{'yes' if spec.headline else ''}")
    return 0


def _cmd_devices(args) -> int:
    from repro.hw.device import DEVICES

    print(f"{'device':<12} {'kind':<5} {'matmul TFLOP/s':>14} {'mem GB/s':>9}")
    for name, dev in sorted(DEVICES.items()):
        print(f"{name:<12} {dev.kind:<5} {dev.matmul_flops / 1e12:>14.1f} "
              f"{dev.mem_bandwidth / 1e9:>9.0f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

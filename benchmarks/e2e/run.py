"""The repository's end-to-end benchmark: four workloads through LiveServer.

One workload, as the driver runs it (last line of stdout is the result)::

    python3 benchmarks/e2e/run.py --workload mix --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps the tracepoints and reports the per-layer metrics.
Without ``--workload`` every workload runs both ways, each in its own
subprocess, and every metric is printed by name with its unit::

    python3 benchmarks/e2e/run.py --seed 0 --out results.jsonl

See README.md beside this file for the metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the engine thread and the event-loop thread are the two
# cores this host has, and a BLAS pool would fight both. Must be set
# before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import asyncio  # noqa: E402
import dataclasses  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import micro  # noqa: E402
import stats  # noqa: E402
import sut  # noqa: E402
import tracepoints  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
# name -> unit; BENCHMARK.json is the one place that says what is reported.
E2E = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.5  # of --seconds, in a traced run
SMOKE_SECONDS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, each in a subprocess")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON line per run to this file")
    parser.add_argument("--append", help="append one summary row (commit, host, metrics) "
                        "to this JSONL trajectory", nargs="?",
                        const="benchmarks/results/BENCH_e2e.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows, no sample-size rule: does it run at all")
    return parser.parse_args(argv)


# -- one workload, in this process ------------------------------------------------------


async def _ready(engine, workload, warm: bool = True):
    """Start a server and, on a new engine, serve one request per schema,
    so the compiled plans and spliced bases exist before the first timed
    request."""
    server = sut.new_server(engine)
    await server.start()
    for request in workload.ready_requests if warm else ():
        record = loadgen.Record(request, due=loadgen.now())
        await loadgen._drive(server, record)
        if not record.completed:
            raise RuntimeError(f"warm-up request failed: {record.error}")
    return server


async def _set_up(workload, scratch: Path, repeats: int):
    """Build the system ``repeats`` times; keep the last. Returns the
    engine, its started server and the seconds each set-up took."""
    took = []
    for i in range(repeats):
        snapshot_dir = scratch / f"snapshot-{i}"
        started = time.monotonic()
        engine = sut.build_engine(workload, snapshot_dir)
        server = await _ready(engine, workload)
        took.append(time.monotonic() - started)
        if i < repeats - 1:
            await server.stop()
            del engine, server
            shutil.rmtree(snapshot_dir, ignore_errors=True)
    return engine, server, took


async def _run_phase(server, workload, phase, seed, seconds, part=0):
    """One window of ``phase`` lasting its share of ``seconds``; the server
    is stopped when it closes."""
    requests, dues = workloads.phase_requests(workload, phase, seed, seconds, part)
    if phase.mode == "open":
        result = await loadgen.run_open(
            server, requests, dues, warmup_s=phase.warmup_s, name=phase.name)
        await server.stop()
    else:
        result = await loadgen.run_closed(
            server, requests, clients=phase.clients,
            warmup_requests=phase.warmup_requests,
            seconds=seconds * phase.share, name=phase.name)
        await server.stop(drain=False)
    return result


def _latency(result, smoke: bool) -> tuple[dict, bool]:
    """Latency metrics of a window; second value: the sample was too small
    for the percentile rule and the rule was waived."""
    if smoke:
        return stats.latency_metrics(result, min_beyond=0), False
    try:
        return stats.latency_metrics(result), False
    except stats.TooFewSamples as exc:
        print(f"WARNING: {result.name}: {exc}; reported without the sample-size rule",
              file=sys.stderr)
        return stats.latency_metrics(result, min_beyond=0), True


async def _end_to_end(args, workload, engine, server, setup_s: float):
    """Every phase with tracing off. Latency comes from the first phase,
    goodput from the last (``mix``: open loop, then saturation); both are
    corrected for how slow the host was during their window."""
    host = hostspeed.HostSpeed()
    sampler = asyncio.create_task(host.run())
    results = []
    for phase in workload.phases:
        if results:
            server = await _ready(engine, workload, warm=False)
        results.append(await _run_phase(server, workload, phase, args.seed, args.seconds))
    sampler.cancel()
    await asyncio.gather(sampler, return_exceptions=True)
    latency, waived = _latency(results[0], args.smoke)
    slow_first = host.slowdown(results[0].t0, results[0].t1)
    slow_last = host.slowdown(results[-1].t0, results[-1].t1)
    goodput = stats.goodput_tok_s(results[-1])
    metrics = {
        "setup_s": setup_s,
        "ttft_ms_p50": latency["ttft_ms_p50"] / slow_first,
        "goodput_tok_s": goodput * slow_last,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Printed by every run, gated by none: the host's slowdown and what
    # was measured before correcting for it, then the metrics that did not
    # repeat within any bound the contract allows (README, "Demoted").
    ungated = {
        "host_slowdown": slow_first,
        "host_slowdown_goodput_window": slow_last,
        "ttft_ms_p50_uncorrected": latency["ttft_ms_p50"],
        "goodput_tok_s_uncorrected": goodput,
        "ttft_ms_p95": latency["ttft_ms_p95"],
        "tpot_ms": latency["tpot_ms"],
        "itl_ms_p95": latency["itl_ms_p95"],
        "slo_ok_frac": stats.slo_ok_frac(results[0]),
    }
    notes = {"samples": latency["samples"], "underpowered": waived, "ungated": ungated}
    return results, metrics, notes


async def _per_layer(args, workload, engine, server):
    """The first phase twice on one engine: a short window with tracing
    off, then the traced window the per-layer metrics come from; the
    difference between the two is the tracing overhead."""
    phase = workload.phases[0]
    plain = await _run_phase(
        server, workload, phase, args.seed, args.seconds * UNTRACED_SHARE / phase.share)
    plain.name += "-untraced"
    tracer = tracepoints.Tracer()
    asyncio.get_running_loop().set_default_executor(tracer.executor())
    tracer.install(sut.TRACE_TARGETS)
    try:
        server = await _ready(engine, workload, warm=False)
        before = layers.Snapshot(engine, server)
        result = await _run_phase(
            server, workload, phase, args.seed,
            args.seconds * TRACED_SHARE / phase.share, part=1)
        after = layers.Snapshot(engine, server)
    finally:
        tracer.uninstall()
    layers.assign_requests(tracer.spans)
    metrics = layers.layer_metrics(
        tracer.spans, result, before, after,
        loop_thread=threading.get_ident(), kv_bytes_per_token=engine.kv_bytes_per_token)
    off, _ = _latency(plain, True)
    on, _ = _latency(result, True)
    for key in ("ttft_ms_p95", "tpot_ms", "itl_ms_p95"):
        metrics[f"runtime.{key}"] = off[key]
    for key, name in (("tpot_ms", "tpot"), ("ttft_ms_p50", "ttft")):
        metrics[f"trace.overhead_frac.{name}"] = on[key] / off[key] - 1.0 if off[key] else 0.0
    metrics["trace.spans"] = len(tracer.spans)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    tracepoints.write_chrome_trace(tracer.spans, trace_path)
    metrics.update(micro.micro_metrics(args.seed, smoke=args.smoke))
    return [plain, result], metrics, {"trace_file": str(trace_path.relative_to(REPO_ROOT))}


async def measure(args) -> dict:
    # One engine thread. LiveServer runs the engine on the loop's default
    # executor; asyncio's own default is a pool, and whenever store upkeep
    # overlaps an iteration a second worker takes over with its own malloc
    # arena: +60 MB of peak RSS in some runs and not in others.
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=1, thread_name_prefix="engine"))
    tok = sut.tokenizer()
    # Paid once per process, whatever is built after: interpreter and
    # imports, numpy, the tokenizer's training.
    one_time_s = time.monotonic() - PROCESS_START
    workload = workloads.build(args.workload, args.seed, lambda s: len(tok.encode(s)))
    if args.smoke:
        workload.phases = [
            dataclasses.replace(p, warmup_requests=p.clients, warmup_s=0.25)
            for p in workload.phases
        ]
    scratch = OUT_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS
    try:
        engine, server, took = await _set_up(workload, scratch, repeats)
        if args.trace:
            results, metrics, notes = await _per_layer(args, workload, engine, server)
        else:
            results, metrics, notes = await _end_to_end(
                args, workload, engine, server, one_time_s + statistics.median(took))
        checked = check.check_outputs(
            workload, results, count=4 if args.smoke else check.CHECKED)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    phases = {
        result.name: {"mode": result.mode, "window_s": result.t1 - result.t0,
                      **stats.counts(result)}
        for result in results
    }
    return {
        **notes,
        "setup_runs_s": took,
        "phases": phases,
        "check": checked,
        "output_digest": check.output_digest(results),
        "result": {
            "correct": not checked["mismatched"] and checked["checked"] > 0,
            "attempted": sum(p["succeeded"] + p["failed"] for p in phases.values()),
            "failed": sum(p["failed"] for p in phases.values()),
            "metrics": metrics,
        },
    }


def run_one(args) -> int:
    load_1m = os.getloadavg()[0]
    report = asyncio.run(measure(args))
    result = report["result"]
    units = PER_LAYER if args.trace else E2E
    if set(units) != set(result["metrics"]):
        raise SystemExit("metrics measured and metrics named in BENCHMARK.json differ: "
                         f"{sorted(set(units) ^ set(result['metrics']))}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  blas_threads 1  load_1m {load_1m:.2f}")
    for name, phase in report["phases"].items():
        print(f"phase {name} ({phase['mode']}, {phase['window_s']:.2f} s): "
              f"sent {phase['sent']}  timed {phase['timed']}  succeeded {phase['succeeded']}  "
              f"failed {phase['failed']}  {phase['errors'] or ''}")
    if "samples" in report:
        print(f"samples: ttft {report['samples']['ttft']}  gaps {report['samples']['gaps']}"
              f"{'  (UNDERPOWERED: percentile rule waived)' if report['underpowered'] else ''}")
        print("ungated: " + "  ".join(f"{k} {v:.4f}" for k, v in report["ungated"].items()))
        print(f"set-ups {' '.join(f'{s:.3f}' for s in report['setup_runs_s'])} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    check = report["check"]
    print(f"output check: {check['checked']} recomputed, "
          f"{len(check['mismatched'])} mismatched {check['mismatched'] or ''}")
    print(f"output_digest {report['output_digest']}")
    if "trace_file" in report:
        print(f"trace written to {report['trace_file']}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "load_1m": load_1m, "smoke": args.smoke,
                  "output_digest": report["output_digest"], "phases": report["phases"],
                  "ungated": report.get("ungated"), **result}
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in its own subprocess ------------------------------------------


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    plan = [(name, 0) for name in workloads.NAMES]
    plan += [("mix", 1)] if args.smoke else [(name, 1) for name in workloads.NAMES]
    row: dict = {}
    status = 0
    for name, trace in plan:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
        if args.out:
            command += ["--out", args.out]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"FAILED: {name} --trace {trace} exited {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
        row.setdefault(name, {}).update(
            {metric: value["value"] for metric, value in result["metrics"].items()})
        print()
    if args.append and status == 0:
        summary = {"commit": _commit(), "host": platform.node(), "cores": os.cpu_count(),
                   "python": platform.python_version(), "seed": args.seed,
                   "seconds": seconds, "workloads": row}
        Path(args.append).parent.mkdir(parents=True, exist_ok=True)
        with open(args.append, "a") as out:
            out.write(json.dumps(summary) + "\n")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the lines ``run.py --out`` appended: one or more
untraced runs per workload. One row per workload x end-to-end metric:
the medians of both sides, their ratio (B over A, with its base), the
wider of the two run-to-run spreads, and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

- ``within``      B's median is no worse than A's by more than the bound
- ``better``      B's median is better than A's by more than the bound
- ``worse``       B's median is worse than A's by more than the bound
- ``unresolved``  the spread of either side is wider than the bound, so
                  the runs cannot tell (needs at least 4 runs per side to
                  be judged; fewer runs are compared without a spread)

Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import stats

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over the untraced runs of a file."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        for name, metric in run["metrics"].items():
            values[run["workload"]][name].append(metric["value"])
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """Verdict, B/A ratio of medians, and the wider spread (nan with
    fewer than 4 runs on a side)."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base
    spreads = [stats.spread(v) for v in (a, b) if len(v) >= 4]
    widest = max(spreads) if spreads else float("nan")
    if spreads and widest > bound:
        return "unresolved", ratio, widest
    change = ratio - 1.0 if better == "lower" else 1.0 - ratio  # > 0: worse
    if change > bound:
        return "worse", ratio, widest
    if change < -bound:
        return "better", ratio, widest
    return "within", ratio, widest


def compare(a_path: str, b_path: str) -> list[dict]:
    a_runs, b_runs = load(a_path), load(b_path)
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            a = a_runs.get(workload, {}).get(metric["name"])
            b = b_runs.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            outcome, ratio, widest = verdict(a, b, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": statistics.median(a), "b": statistics.median(b), "runs": (len(a), len(b)),
                "ratio": ratio, "spread": widest, "bound": metric["bound"], "verdict": outcome,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(*argv)
    print(f"{'workload':14s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:14s} {row['a']:12.4f} {row['b']:12.4f} "
              f"{row['ratio']:7.3f} {row['spread']:7.3f} {row['bound']:6.2f}  "
              f"{row['verdict']}  ({row['runs'][0]}+{row['runs'][1]} runs, {row['unit']})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

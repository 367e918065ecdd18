"""Paper-style table and series rendering for the benchmark harness.

Each benchmark prints its table to stdout *and* writes it to
``benchmarks/results/<name>.txt``, headed by the commit that produced it,
so the regenerated rows survive pytest's output capture. EXPERIMENTS.md
points at these files.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR", Path(__file__).resolve().parents[3] / "benchmarks" / "results")
)


def format_table(title: str, header: list[str], rows: list[list], note: str = "") -> str:
    """Fixed-width table with a title rule, matching the repo's reports."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def _commit() -> str:
    """The checkout's commit, ``-dirty`` when tracked files differ from it."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def emit(name: str, text: str) -> str:
    """Print a report block and persist it under benchmarks/results/,
    headed by the producing commit."""
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(f"commit: {_commit()}\n{text}\n")
    return text


def format_series(title: str, x_label: str, xs: list, series: dict[str, list], note: str = "") -> str:
    """A figure rendered as columns: x plus one column per named series."""
    header = [x_label, *series.keys()]
    rows = [[x, *(s[i] for s in series.values())] for i, x in enumerate(xs)]
    return format_table(title, header, rows, note=note)

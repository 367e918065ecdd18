"""A small, dependency-free metrics registry for the serving runtime.

Three instrument kinds — counters, gauges, histograms — organised into
labelled families, exportable as Prometheus text or a JSON-ready
snapshot. Histograms keep both cumulative buckets (the Prometheus
convention) and a bounded sample reservoir so TTFT/TTLT percentiles can
be computed exactly for the run lengths this repo cares about.

Everything is guarded by one registry lock: the runtime records metrics
from its executor thread while the event loop (or a scraper) snapshots
them concurrently.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.analysis.locks import ordered_lock

# Latency-shaped default buckets (seconds), 1 ms .. 10 s.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

SNAPSHOT_QUANTILES = (50.0, 90.0, 95.0, 99.0)

_RESERVOIR_CAP = 100_000  # plenty for offline runs; bounds memory anyway


class Counter:
    """Monotonically increasing count."""

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock  # lock-order: metrics.registry
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (queue depth, bytes resident)."""

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock  # lock-order: metrics.registry
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative buckets plus an exact sample reservoir."""

    def __init__(
        self, lock: threading.RLock, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self._lock = lock  # lock-order: metrics.registry
        self.bounds = tuple(sorted(buckets))
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # +inf tail
        self._sum = 0.0
        self._count = 0
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    break
            else:
                self._bucket_counts[-1] += 1
            if len(self._samples) < _RESERVOIR_CAP:
                self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile over the retained samples (q in [0, 100])."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(np.asarray(self._samples), q))

    def samples(self) -> list[float]:
        """A copy of the retained samples, to pool across registries."""
        with self._lock:
            return list(self._samples)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +inf."""
        with self._lock:
            out: list[tuple[float, int]] = []
            running = 0
            for bound, n in zip(self.bounds, self._bucket_counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), running + self._bucket_counts[-1]))
            return out


class _Family:
    """One metric name with labelled children of a single kind."""

    def __init__(self, name: str, kind: str, help_: str, lock, buckets=None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_
        self.buckets = buckets
        self._lock = lock  # lock-order: metrics.registry
        self.children: dict[tuple[tuple[str, str], ...], object] = {}

    def child(self, labels: dict[str, str]):
        key = tuple(sorted(labels.items()))
        with self._lock:
            metric = self.children.get(key)
            if metric is None:
                if self.kind == "counter":
                    metric = Counter(self._lock)
                elif self.kind == "gauge":
                    metric = Gauge(self._lock)
                else:
                    metric = Histogram(self._lock, self.buckets or DEFAULT_BUCKETS)
                self.children[key] = metric
            return metric


def _label_str(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _merge_labels(base: str, extra: str) -> str:
    """Merge two rendered label blocks: '{a="1"}' + '{b="2"}'."""
    if not base:
        return extra
    if not extra:
        return base
    return base[:-1] + "," + extra[1:]


class MetricsRegistry:
    """Create-or-get metric families; render Prometheus text / JSON."""

    def __init__(self) -> None:
        # Leaf lock: metric recording happens under the store lock
        # (eviction listeners), the engine fast path, and the fabric
        # placement ledger, never the other way around.
        self._lock = ordered_lock(
            "metrics.registry", after=("store", "engine.fastpath", "fabric.placement")
        )
        self._families: dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_: str, buckets=None) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_, self._lock, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help_: str = "", **labels: str) -> Counter:
        return self._family(name, "counter", help_).child(labels)

    def gauge(self, name: str, help_: str = "", **labels: str) -> Gauge:
        return self._family(name, "gauge", help_).child(labels)

    def histogram(
        self, name: str, help_: str = "", buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        return self._family(name, "histogram", help_, buckets).child(labels)

    # -- export -----------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition. Histograms emit the standard
        ``_bucket``/``_sum``/``_count`` series plus a ``<name>_quantile``
        gauge family carrying the exact reservoir percentiles."""
        with self._lock:
            lines: list[str] = []
            for family in self._families.values():
                if family.help:
                    lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                for key, metric in family.children.items():
                    labels = _label_str(key)
                    if family.kind in ("counter", "gauge"):
                        lines.append(f"{family.name}{labels} {metric.value:g}")
                        continue
                    for bound, cum in metric.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        le_label = '{le="%s"}' % le
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_merge_labels(labels, le_label)} {cum}"
                        )
                    lines.append(f"{family.name}_sum{labels} {metric.sum:g}")
                    lines.append(f"{family.name}_count{labels} {metric.count}")
                if family.kind == "histogram" and any(
                    m.count for m in family.children.values()
                ):
                    lines.append(f"# TYPE {family.name}_quantile gauge")
                    for key, metric in family.children.items():
                        labels = _label_str(key)
                        for q in SNAPSHOT_QUANTILES:
                            quantile = '{quantile="%g"}' % (q / 100)
                            lines.append(
                                f"{family.name}_quantile"
                                f"{_merge_labels(labels, quantile)} "
                                f"{metric.percentile(q):g}"
                            )
            return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-ready nested dict of every series."""
        with self._lock:
            out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
            for family in self._families.values():
                for key, metric in family.children.items():
                    series = family.name + _label_str(key)
                    if family.kind == "counter":
                        out["counters"][series] = metric.value
                    elif family.kind == "gauge":
                        out["gauges"][series] = metric.value
                    else:
                        out["histograms"][series] = {
                            "count": metric.count,
                            "sum": metric.sum,
                            "mean": metric.mean,
                            **{
                                f"p{q:g}": metric.percentile(q)
                                for q in SNAPSHOT_QUANTILES
                            },
                        }
            return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

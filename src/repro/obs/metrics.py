"""Counters, gauges and fixed-bucket histograms (Ceph perf-counter style).

Naming scheme
-------------
A metric is identified by ``(name, daemon, tags)``:

* ``name`` — dotted, unit-suffixed (``op_latency_s``, ``bytes_written``);
* ``daemon`` — the simulated endpoint that recorded it (``mds0``,
  ``client1``, ``osd.2``, ``cudele`` for mechanism-level records);
* ``tags`` — sorted key/value pairs; by convention ``mechanism=<paper
  mechanism>`` (``rpc``, ``stream``, ``volatile_apply``,
  ``global_persist``, …) and, where a subtree policy is in scope,
  ``policy=<consistency>/<durability>`` (``posix`` for plain subtrees).

Histograms use fixed log-spaced buckets so p50/p95/p99 are available
without storing samples; percentiles interpolate linearly inside the
bucket and clamp to the observed min/max.  Everything here is pure
host-side bookkeeping — no engine events, no RNG — and every container
renders in sorted order, so snapshots are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsHub",
]

#: Log-spaced bucket upper bounds: 5 per decade, 1 µs .. 1000 s.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (i / 5.0 - 6.0) for i in range(46)
)

TagItems = Tuple[Tuple[str, str], ...]


def _tag_items(tags: Dict[str, object]) -> TagItems:
    return tuple(sorted((k, str(v)) for k, v in tags.items()))


class _Metric:
    """Shared identity plumbing for the three metric kinds."""

    kind = "metric"
    __slots__ = ("name", "daemon", "tags")

    def __init__(self, name: str, daemon: str, tags: TagItems):
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.daemon = daemon
        self.tags = tags

    def _base_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "daemon": self.daemon,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        tags = ",".join(f"{k}={v}" for k, v in self.tags)
        return f"{type(self).__name__}({self.daemon}.{self.name}[{tags}])"


class Counter(_Metric):
    """A monotonically increasing count (ops, bytes, retries...)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, daemon: str = "", tags: TagItems = ()):
        super().__init__(name, daemon, tags)
        self.value = 0

    def incr(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n

    def to_dict(self) -> dict:
        out = self._base_dict()
        out["value"] = self.value
        return out


class Gauge(_Metric):
    """A point-in-time level (queue depth, window occupancy...)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, daemon: str = "", tags: TagItems = ()):
        super().__init__(name, daemon, tags)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def to_dict(self) -> dict:
        out = self._base_dict()
        out["value"] = self.value
        return out


class Histogram(_Metric):
    """Fixed-bucket histogram: percentiles without sample storage.

    ``bounds`` are inclusive bucket upper bounds; one overflow bucket
    catches anything beyond the last bound.  ``percentile`` finds the
    bucket holding the requested rank and interpolates linearly within
    it, clamping to the exact observed ``min``/``max``.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        daemon: str = "",
        tags: TagItems = (),
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    ):
        super().__init__(name, daemon, tags)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative observation: {value!r}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s buckets into this histogram (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0..100) from the buckets."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p!r}")
        if self.count == 0:
            return 0.0
        # Boundary percentiles are exact observations, not estimates: the
        # scan below resolves rank 0 *inside* the first non-empty bucket
        # (``cum + c >= 0`` matches immediately), which answers with a
        # bucket interpolation where the observed extreme is known.
        if p == 0:
            return self.min
        if p == 100:
            return self.max
        rank = (p / 100.0) * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = min(max((rank - cum) / c, 0.0), 1.0)
                value = lo + (hi - lo) * frac
                return min(max(value, self.min), self.max)
            cum += c
        return self.max

    def to_dict(self) -> dict:
        out = self._base_dict()
        out.update(
            count=self.count,
            sum=self.sum,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
            # Sparse rendering: only occupied buckets, by upper bound
            # ("+Inf" is the overflow bucket), in bound order.
            buckets={
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self.counts)
                if c
            },
        )
        return out


class MetricsHub:
    """Registry of every metric recorded by an instrumented cluster.

    ``counter``/``gauge``/``histogram`` get-or-create: the first call
    for a ``(name, daemon, tags)`` identity creates the metric, later
    calls return the same object (asking for a different kind under the
    same identity is an error).
    """

    def __init__(self):
        self._metrics: Dict[tuple, _Metric] = {}

    def _get(self, cls, name: str, daemon: str, tags: dict, **kw) -> _Metric:
        items = _tag_items(tags)
        key = (name, daemon, items)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, daemon=daemon, tags=items, **kw)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {key} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, daemon: str = "", **tags) -> Counter:
        return self._get(Counter, name, daemon, tags)

    def gauge(self, name: str, daemon: str = "", **tags) -> Gauge:
        return self._get(Gauge, name, daemon, tags)

    def histogram(
        self,
        name: str,
        daemon: str = "",
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
        **tags,
    ) -> Histogram:
        return self._get(Histogram, name, daemon, tags, bounds=bounds)

    def get(self, name: str, daemon: str = "", **tags) -> Optional[_Metric]:
        return self._metrics.get((name, daemon, _tag_items(tags)))

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> List[_Metric]:
        """Every metric, sorted by (name, daemon, tags) — deterministic."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def histograms(self) -> Iterable[Histogram]:
        for m in self.metrics():
            if isinstance(m, Histogram):
                yield m

    def snapshot(self) -> List[dict]:
        """Deterministic, JSON-ready dump of every metric."""
        return [m.to_dict() for m in self.metrics()]

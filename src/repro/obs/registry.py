"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the always-on half of the observability layer (the
event recorder in :mod:`repro.obs.recorder` is the opt-in half).  Every
instrument is named, optionally carries labeled children (``metric
.labels(node="3")``), and serialises into a plain-dict snapshot that
the service's ``/metrics`` endpoint and the CLI's ``--metrics-out``
flag emit as JSON.

Design constraints, in order:

1. cheap — one lock acquisition per update, no allocation on the hot
   path once an instrument exists;
2. deterministic — snapshots sort names and labels so dumps diff
   cleanly (the golden-value CI job relies on this);
3. stdlib only.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type, TypeVar, cast

from repro.errors import ConfigurationError

#: Duration buckets (seconds) used by span timers by default.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Occupancy/size buckets used for FIFO depth style histograms.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

LabelKey = Tuple[Tuple[str, str], ...]


M = TypeVar("M", bound="_Metric")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _qualified(name: str, key: LabelKey) -> str:
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class _Metric:
    """Shared machinery: a named instrument with labeled children.

    The parent object doubles as the unlabeled instrument; ``labels``
    returns (creating on first use) a child keyed by the sorted label
    items.  Children are full instruments of the same kind.
    """

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, "_Metric"] = {}
        self._touched = False

    def labels(self: M, **labels: object) -> M:
        key = _label_key(labels)
        with self._lock:
            existing = self._children.get(key)
            if existing is not None:
                # Children are always spawned by type(self), so the
                # stored base-typed reference is really an M.
                return cast(M, existing)
            child = self._spawn()
            self._children[key] = child
            return child

    def _spawn(self: M) -> M:
        return type(self)(self.name, self.help)

    def _collect(self, out: Dict[str, object]) -> None:
        with self._lock:
            if self._touched:
                out[self.name] = self._value_snapshot()
            children = sorted(self._children.items())
        for key, child in children:
            with child._lock:
                if child._touched:
                    out[_qualified(self.name, key)] = child._value_snapshot()

    def _value_snapshot(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount
            self._touched = True

    def _value_snapshot(self) -> float:
        return self.value


class Gauge(_Metric):
    """A value that can go up and down (queue depth, pool size)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            self._touched = True

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount
            self._touched = True

    def _value_snapshot(self) -> float:
        return self.value


class Histogram(_Metric):
    """Bucketed observations with count/sum/min/max.

    ``edges`` are upper bounds with ``value <= edge`` semantics (the
    Prometheus ``le`` convention); one overflow bucket catches the
    rest.  Snapshots render cumulative bucket counts keyed by edge.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        edges: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not edges or list(edges) != sorted(edges):
            raise ConfigurationError(
                f"histogram {name!r} needs sorted, non-empty bucket edges"
            )
        self.edges: Tuple[float, ...] = tuple(float(edge) for edge in edges)
        self._counts = [0] * (len(self.edges) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _spawn(self) -> "Histogram":
        return Histogram(self.name, self.help, self.edges)

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._touched = True

    def _cumulative(self) -> Dict[str, int]:
        # Caller holds self._lock.
        out: Dict[str, int] = {}
        running = 0
        for edge, count in zip(self.edges, self._counts):
            running += count
            out[f"{edge:g}"] = running
        out["+Inf"] = running + self._counts[-1]
        return out

    def absorb(self, data: Dict[str, Any]) -> None:
        """Add another histogram's snapshot (same edges) into this one."""
        with self._lock:
            if list(data["buckets"]) != list(self._cumulative()):
                raise ConfigurationError(
                    f"histogram {self.name!r}: cannot absorb different bucket edges"
                )
            previous = 0
            for index, running in enumerate(data["buckets"].values()):
                self._counts[index] += running - previous
                previous = running
            self.count += data["count"]
            self.sum += data["sum"]
            self.min = data["min"] if self.min is None else min(self.min, data["min"])
            self.max = data["max"] if self.max is None else max(self.max, data["max"])
            self._touched = True

    def _value_snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": self._cumulative(),
        }


class MetricsRegistry:
    """A named collection of metrics with JSON-friendly snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _instrument(self, cls: Type[M], name: str, factory: Callable[[], M]) -> M:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                created = factory()
                self._metrics[name] = created
                return created
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {existing.kind}"
                )
            return existing

    def counter(self, name: str, help: str = "") -> Counter:
        return self._instrument(Counter, name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._instrument(Gauge, name, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        edges: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._instrument(Histogram, name, lambda: Histogram(name, help, edges))

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric named ``name`` (None when absent)."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All touched instruments, grouped by kind, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for _name, metric in metrics:
            metric._collect(out[metric.kind + "s"])
        return out

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; histograms combine count, sum, min, max and
        buckets.  A gauge is one process's current value, which has no
        sum across processes, so a snapshot carrying gauges is rejected.
        """
        if snapshot["gauges"]:
            raise ConfigurationError(
                f"cannot merge gauges: {', '.join(sorted(snapshot['gauges']))}"
            )
        for qualified, value in snapshot["counters"].items():
            name, labels = parse_qualified(qualified)
            _child(self.counter(name), labels).inc(cast(float, value))
        for qualified, value in snapshot["histograms"].items():
            name, labels = parse_qualified(qualified)
            data = cast(Dict[str, Any], value)
            edges = [float(edge) for edge in data["buckets"] if edge != "+Inf"]
            _child(self.histogram(name, edges=edges), labels).absorb(data)

    def reset(self, *prefixes: str) -> None:
        """Drop the metrics named with one of ``prefixes`` (default: all).

        The registry object itself stays shared.
        """
        with self._lock:
            for name in [name for name in self._metrics if name.startswith(prefixes or ("",))]:
                del self._metrics[name]


def parse_qualified(qualified: str) -> Tuple[str, Dict[str, str]]:
    """Split a snapshot key ``name{k=v,...}`` into ``(name, labels)``."""
    name, _, labels = qualified.partition("{")
    if not labels:
        return name, {}
    pairs = (item.partition("=") for item in labels[:-1].split(","))
    return name, {key: value for key, _, value in pairs}


def _child(metric: M, labels: Dict[str, str]) -> M:
    return metric.labels(**labels) if labels else metric


#: The process-wide default registry every subsystem publishes into.
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _DEFAULT

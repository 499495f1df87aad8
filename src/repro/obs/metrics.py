"""The lock-striped metrics registry: counters, gauges, histograms.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  A disabled registry hands out
   one shared no-op instrument per kind; a hot-path record is a single
   dynamic dispatch to an empty method, and integration points that can
   skip attaching an observer entirely (the service does) pay only an
   ``is None`` guard — the same shape as the fault-injection hooks.
2. **Bounded contention when enabled.**  Instead of one registry-wide
   lock (every worker thread serializing on every counter bump) or one
   lock per instrument child (thousands of locks for the race detector
   to track), the registry owns a small fixed array of *stripe* locks
   and assigns each labeled child a stripe by stable hash of its
   identity.  Two threads only contend when their instruments share a
   stripe.
3. **One export model.**  Everything renders both as Prometheus
   exposition text (:meth:`MetricsRegistry.prometheus_text`) and as a
   JSON-friendly dict (:meth:`MetricsRegistry.as_dict`), so the health
   endpoint, the CLI and the tests consume the same snapshot.

Naming follows Prometheus conventions: ``_total`` counters,
``_seconds`` durations, label sets kept low-cardinality (algorithm,
routing, outcome, event kind, queue site).
"""

from __future__ import annotations

import threading
from typing import Dict, Generic, Iterable, List, Sequence, Tuple, TypeVar, Union, cast

from repro.errors import ReproError

LabelValues = Tuple[str, ...]

#: Default latency buckets (seconds) — spans sub-millisecond engine runs
#: up to multi-second degraded requests.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Stripe locks per registry; children are hashed onto them.
STRIPES = 8

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ReproError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def _render_labels(names: Sequence[str], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotone counter child (one label-value combination)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """Settable point-in-time value child."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge down by ``amount``."""
        self.inc(-amount)

    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram child (Prometheus semantics)."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]) -> None:
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> Dict[str, Union[float, List[int]]]:
        """Cumulative bucket counts plus sum/count, taken atomically."""
        with self._lock:
            raw = list(self._counts)
            total_sum = self._sum
            total_count = self._count
        cumulative: List[int] = []
        running = 0
        for count in raw:
            running += count
            cumulative.append(running)
        return {"buckets": cumulative, "sum": total_sum, "count": total_count}


class _NullCounter(Counter):
    """Disabled-registry counter: every record is a no-op."""

    __slots__ = ()

    def __init__(self) -> None:  # no lock, never mutated
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def value(self) -> float:
        return 0.0


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def value(self) -> float:
        return 0.0


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Union[float, List[int]]]:
        return {"buckets": [], "sum": 0.0, "count": 0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

_Child = Union[Counter, Gauge, Histogram]
_C = TypeVar("_C", bound=_Child)


class MetricFamily(Generic[_C]):
    """One named metric plus all its labeled children."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "children", "_registry")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.children: Dict[LabelValues, _C] = {}
        self._registry = registry

    def labels(self, *values: str) -> _C:
        """The child for one label-value combination (created on demand).

        Resolution is meant to happen once per (request, combination) —
        hot paths hold on to the returned child and record against it.
        """
        if len(values) != len(self.label_names):
            raise ReproError(
                f"metric {self.name} expects labels {self.label_names}, "
                f"got {len(values)} values"
            )
        key = tuple(values)
        child = self.children.get(key)
        if child is not None:
            return child
        return cast(_C, self._registry._make_child(self, key))

    def __repr__(self) -> str:
        return f"MetricFamily({self.name}, {self.kind}, children={len(self.children)})"


class MetricsRegistry:
    """Registry of named metric families with striped child locks.

    Parameters
    ----------
    enabled:
        ``False`` hands out shared no-op instruments: registration still
        works (callers keep one code path) but recording costs a single
        empty method call and exports render empty.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._registry_lock = threading.Lock()
        self._stripes: Tuple[threading.Lock, ...] = tuple(
            threading.Lock() for _ in range(STRIPES)
        )
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Iterable[str],
        buckets: Tuple[float, ...] = (),
    ) -> "MetricFamily[_Child]":
        labels = tuple(label_names)
        with self._registry_lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != labels:
                    raise ReproError(
                        f"metric {name} re-registered as {kind}{labels} "
                        f"(was {existing.kind}{existing.label_names})"
                    )
                return existing
            family = MetricFamily(self, name, kind, help_text, labels, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> "MetricFamily[Counter]":
        """Register (or fetch) a counter family."""
        return cast("MetricFamily[Counter]", self._family(name, "counter", help_text, labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> "MetricFamily[Gauge]":
        """Register (or fetch) a gauge family."""
        return cast("MetricFamily[Gauge]", self._family(name, "gauge", help_text, labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> "MetricFamily[Histogram]":
        """Register (or fetch) a histogram family."""
        if not buckets or list(buckets) != sorted(buckets):
            raise ReproError(f"histogram buckets must be sorted and non-empty: {buckets!r}")
        return cast(
            "MetricFamily[Histogram]",
            self._family(name, "histogram", help_text, labels, tuple(buckets)),
        )

    # -- child construction (stripe assignment) ----------------------------------

    def _make_child(self, family: MetricFamily, key: LabelValues) -> _Child:
        if not self.enabled:
            if family.kind == "counter":
                return _NULL_COUNTER
            if family.kind == "gauge":
                return _NULL_GAUGE
            return _NULL_HISTOGRAM
        stripe = self._stripes[hash((family.name, key)) % len(self._stripes)]
        with self._registry_lock:
            child = family.children.get(key)
            if child is None:
                if family.kind == "counter":
                    child = Counter(stripe)
                elif family.kind == "gauge":
                    child = Gauge(stripe)
                else:
                    child = Histogram(stripe, family.buckets)
                family.children[key] = child
            return child

    # -- export ------------------------------------------------------------------

    def _families_snapshot(self) -> List[MetricFamily]:
        with self._registry_lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self._families_snapshot():
            with self._registry_lock:
                children = sorted(family.children.items())
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in children:
                labels = _render_labels(family.label_names, values)
                if isinstance(child, Histogram):
                    snap = child.snapshot()
                    buckets = snap["buckets"]
                    assert isinstance(buckets, list)
                    bounds = list(family.buckets) + [float("inf")]
                    for bound, cumulative in zip(bounds, buckets):
                        bucket_labels = _render_labels(
                            tuple(family.label_names) + ("le",),
                            tuple(values) + (_format_value(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    lines.append(f"{family.name}_sum{labels} {snap['sum']}")
                    lines.append(f"{family.name}_count{labels} {snap['count']}")
                else:
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value())}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly snapshot: name → {kind, help, series}."""
        out: Dict[str, Dict[str, object]] = {}
        for family in self._families_snapshot():
            with self._registry_lock:
                children = sorted(family.children.items())
            series: List[Dict[str, object]] = []
            for values, child in children:
                labels = dict(zip(family.label_names, values))
                if isinstance(child, Histogram):
                    snap = child.snapshot()
                    series.append(
                        {
                            "labels": labels,
                            "buckets": snap["buckets"],
                            "bounds": list(family.buckets),
                            "sum": snap["sum"],
                            "count": snap["count"],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value()})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, families={len(self._families)})"

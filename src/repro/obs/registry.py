"""`MetricsRegistry` — counters, gauges and histograms, zero dependencies.

The registry is the serving-layer face of the paper's measurement story:
where :class:`repro.utils.counters.OpCounter` tallies *machine
independent* elementary operations (the quantity Theorems 4.1/5.1 speak
about), the registry records *operational* quantities — query latencies,
publish durations, cache traffic — and exports them in the two formats
monitoring stacks eat: Prometheus text exposition and a JSON snapshot.

Design constraints:

* **Zero dependencies.**  Pure stdlib; no prometheus_client.
* **Thread safe.**  One lock per metric family, and every mutation of
  a family takes it; the registry's own lock guards only registration.
  Metric updates happen per *batch* or per *query*, never per
  elementary operation, so the locks are off every O(||AFF||) inner loop.
* **Cheap per query.**  A served read calls ``Histogram.observe`` once,
  so that path, ``Counter.inc`` and ``Gauge.set`` allocate nothing the
  cyclic collector counts (its pauses land on whichever call allocates)
  once warm: each family memoises its validated label keys, a bucket is
  found with :func:`bisect.bisect_left`, and the lock is taken without
  ``with``.  A family that mirrors state the program already keeps
  reads it when scraped (:meth:`Counter.derive`,
  :meth:`Gauge.set_function`), so the code that changes that state
  writes no metric.
* **Labels.**  Each metric family keys its children by label values
  (e.g. ``repro_serve_queries_total{result="hit"}``).  Every label
  value is a series kept for the registry's lifetime, so labels take
  values from small fixed sets, never from growing ones such as epochs.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "COUNT_BUCKETS",
]

#: Fixed latency buckets (seconds): 1us .. 10s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Buckets for small-count distributions (|V_aff| per publish, ...).
COUNT_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Most label sets one family memoises (see :meth:`_Metric._key`).
_KEY_MEMO_LIMIT = 256


def _escape(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared machinery of one metric family (name, help, labels, lock)."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = lock
        self._keys: Dict[str, Tuple[str]] = {}

    def _label_values(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.label_names)

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        """:meth:`_label_values` of *labels*, without the validation
        when it has been done before.

        An unlabelled family needs none.  A one-label family memoises
        the key of each ``str`` value it is given under the right name;
        other values (``1`` and ``True`` hash alike but print
        differently, and a ``str`` subclass may print differently from
        the ``str`` it equals) and families with more labels take the
        full path.  A wrong label set is never memoised, so it raises
        on every call.
        """
        names = self.label_names
        if not labels and not names:
            return ()
        if len(labels) == 1 and len(names) == 1:
            value = labels.get(names[0])
            if type(value) is str:
                key = self._keys.get(value)
                if key is None:
                    key = (value,)
                    if len(self._keys) < _KEY_MEMO_LIMIT:
                        self._keys[value] = key
                return key
        return self._label_values(labels)

    def _render_labels(self, values: Sequence[str]) -> str:
        if not self.label_names:
            return ""
        body = ",".join(
            f'{k}="{_escape(v)}"' for k, v in zip(self.label_names, values)
        )
        return "{" + body + "}"


class Counter(_Metric):
    """A monotonically increasing sum (per label set).

    A child's value is what :meth:`inc` added to it, plus, for a family
    with a derived part (:meth:`derive`), what that part reads for it
    when the family is read.
    """

    kind = "counter"

    def __init__(self, name, help, label_names, lock) -> None:
        super().__init__(name, help, label_names, lock)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._read: Optional[Callable[[], Dict[Tuple[str, ...], float]]] = None

    def derive(self, read: Callable[[], Dict[Tuple[str, ...], float]]) -> None:
        """Add ``read()`` to the family's values whenever it is read.

        *read* returns ``{label values: amount}``, keyed as
        :meth:`series` keys its children (``()`` for an unlabelled
        family).  It mirrors counts the program keeps anyway, so the
        code that changes them never writes the family.
        """
        self._read = read

    def _current(self) -> Dict[Tuple[str, ...], float]:
        """Every child's value right now: a copy of the added values
        plus the derived part."""
        with self._lock:
            values = dict(self._values)
        if self._read is not None:
            for key, amount in self._read().items():
                values[key] = values.get(key, 0.0) + amount
        return values

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (must be >= 0) to the child named by *labels*."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        # acquire/release, not ``with``: ``with`` allocates a bound
        # ``__exit__`` per call, and on a per-query path that allocation
        # is where the cyclic collector's pauses land.
        self._lock.acquire()
        try:
            self._values[key] = self._values.get(key, 0.0) + amount
        finally:
            self._lock.release()

    def value(self, **labels: object) -> float:
        """The child's current value (0 if never incremented)."""
        key = self._key(labels)
        if self._read is None:
            return self._values.get(key, 0.0)
        return self._current().get(key, 0.0)

    def total(self) -> float:
        """Sum across all children."""
        return sum(self._current().values())

    def series(self) -> List[Tuple[Tuple[str, ...], float]]:
        """``[(label_values, value), ...]`` — a consistent copy."""
        return sorted(self._current().items())

    def expose(self) -> List[str]:
        return [
            f"{self.name}{self._render_labels(values)} {_format_value(v)}"
            for values, v in self.series()
        ]

    def snapshot(self) -> List[dict]:
        return [
            {"labels": dict(zip(self.label_names, values)), "value": v}
            for values, v in self.series()
        ]


class Gauge(Counter):
    """A value that can go up and down (per label set).

    An unlabelled gauge can instead mirror state the program already
    keeps (:meth:`set_function`): it is read when the gauge is, so the
    code that changes that state never writes the gauge.
    """

    kind = "gauge"

    def set_function(self, read: Callable[[], float]) -> None:
        """Take the gauge's value from ``read()`` whenever it is read
        (the gauge keeps no value of its own)."""
        if self.label_names:
            raise ValueError(f"gauge {self.name} has labels; only an "
                             "unlabelled gauge can read a function")
        with self._lock:
            self._values.clear()
        self.derive(lambda: {(): float(read())})

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels: object) -> None:
        """Set the child to *value* outright."""
        key = self._key(labels)
        self._lock.acquire()
        try:
            self._values[key] = float(value)
        finally:
            self._lock.release()


class Histogram(_Metric):
    """Cumulative-bucket histogram with fixed, preset bucket edges.

    Buckets follow Prometheus semantics: a bucket labelled ``le=x``
    counts observations ``<= x``; an implicit ``+Inf`` bucket catches
    the rest.  :meth:`quantile` interpolates linearly inside a bucket,
    which is exact at bucket edges and approximate between them — good
    enough for dashboards; exact percentiles for the bench trajectory
    come from raw samples in :mod:`repro.obs.bench`.
    """

    kind = "histogram"

    def __init__(
        self, name, help, label_names, lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names, lock)
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if edges[-1] == math.inf:
            edges = edges[:-1]
        self.buckets = edges
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        self._exemplars: Dict[Tuple[str, ...], Dict[int, dict]] = {}

    def observe(
        self, value: float, exemplar: Optional[str] = None, **labels: object
    ) -> None:
        """Record one observation.

        *exemplar*, when given, is a trace id linking this observation's
        bucket back to the span tree that produced it (OpenMetrics-style
        exemplars): the bucket keeps the *last* exemplar seen, so a
        latency spike in any bucket always points at a recent culprit
        trace.  Exemplars travel in the JSON snapshot, not the text
        exposition.
        """
        key = self._key(labels)
        # First bucket whose edge is >= value (le semantics); NaN, which
        # compares false with every edge, lands in +Inf.
        if value == value:
            index = bisect.bisect_left(self.buckets, value)
        else:
            index = len(self.buckets)
        self._lock.acquire()  # not ``with``: see Counter.inc
        try:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value
            if exemplar is not None:
                self._exemplars.setdefault(key, {})[index] = {
                    "trace_id": exemplar,
                    "value": float(value),
                }
        finally:
            self._lock.release()

    def exemplars(self, **labels: object) -> Dict[str, dict]:
        """Per-bucket exemplars for a label set, keyed by ``le`` edge."""
        key = self._key(labels)
        with self._lock:
            per_bucket = self._exemplars.get(key, {})
            out = {}
            for index, exemplar in per_bucket.items():
                edge = (
                    _format_value(self.buckets[index])
                    if index < len(self.buckets)
                    else "+Inf"
                )
                out[edge] = dict(exemplar)
            return out

    def count(self, **labels: object) -> int:
        """Observations recorded for this label set."""
        with self._lock:
            return sum(self._counts.get(self._key(labels), ()))

    def sum(self, **labels: object) -> float:
        """Sum of observed values for this label set."""
        return self._sums.get(self._key(labels), 0.0)

    def _merged_counts(self) -> Tuple[List[int], float, int]:
        merged = [0] * (len(self.buckets) + 1)
        total_sum, total_n = 0.0, 0
        with self._lock:
            for key, counts in self._counts.items():
                for i, c in enumerate(counts):
                    merged[i] += c
                total_sum += self._sums[key]
        return merged, total_sum, sum(merged)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1) across all label sets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        counts, _sum, total = self._merged_counts()
        if total == 0:
            return math.nan
        target = q * total
        cumulative = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                upper = (
                    self.buckets[i] if i < len(self.buckets)
                    else self.buckets[-1]
                )
                frac = (target - cumulative) / c
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
            cumulative += c
        return self.buckets[-1]

    def series(self):
        with self._lock:
            return sorted(
                (key, list(counts), self._sums[key], sum(counts))
                for key, counts in self._counts.items()
            )

    def expose(self) -> List[str]:
        lines: List[str] = []
        for values, counts, total_sum, total_n in self.series():
            cumulative = 0
            for edge, c in zip(self.buckets, counts):
                cumulative += c
                le = dict(zip(self.label_names, values))
                body = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in le.items()
                )
                sep = "," if body else ""
                lines.append(
                    f'{self.name}_bucket{{{body}{sep}le="{_format_value(edge)}"}}'
                    f" {cumulative}"
                )
            body = ",".join(
                f'{k}="{_escape(v)}"'
                for k, v in zip(self.label_names, values)
            )
            sep = "," if body else ""
            lines.append(
                f'{self.name}_bucket{{{body}{sep}le="+Inf"}} {total_n}'
            )
            suffix = self._render_labels(values)
            lines.append(f"{self.name}_sum{suffix} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{suffix} {total_n}")
        return lines

    def snapshot(self) -> List[dict]:
        out = []
        for values, counts, total_sum, total_n in self.series():
            buckets = {
                _format_value(edge): c
                for edge, c in zip(self.buckets, counts)
            }
            buckets["+Inf"] = counts[-1]
            row = {
                "labels": dict(zip(self.label_names, values)),
                "buckets": buckets,
                "sum": total_sum,
                "count": total_n,
            }
            with self._lock:
                per_bucket = self._exemplars.get(values)
                if per_bucket:
                    row["exemplars"] = {
                        (
                            _format_value(self.buckets[i])
                            if i < len(self.buckets)
                            else "+Inf"
                        ): dict(ex)
                        for i, ex in sorted(per_bucket.items())
                    }
            out.append(row)
        return out


class MetricsRegistry:
    """A named collection of metric families with text/JSON exposition.

    Registration is idempotent: asking for an already-registered name
    returns the existing family when the type and labels match, and
    raises when they do not — so two subsystems can safely share a
    registry without clobbering each other's metrics.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def _register(self, cls, name, help, labels, **kwargs) -> _Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.label_names != label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}"
                    )
                return existing
            metric = cls(name, help, label_names, threading.Lock(), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        return self._register(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram family with fixed *buckets*."""
        return self._register(
            Histogram, name, help, labels, buckets=buckets
        )

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        """The family registered under *name*, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered family names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exposition -----------------------------------------------------
    def expose_text(self) -> str:
        """Prometheus text exposition of every family."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """A JSON-able snapshot of every family."""
        out = {}
        for name in self.names():
            metric = self._metrics[name]
            entry = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "series": metric.snapshot(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = [
                    _format_value(b) for b in metric.buckets
                ]
            out[name] = entry
        return out

    def dump_json(self) -> str:
        """The snapshot as an indented JSON string."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    @classmethod
    def restore(cls, snapshot: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        Used by ``repro obs metrics-dump --snapshot`` to re-render a
        snapshot another process saved; histogram per-bucket counts are
        restored exactly (the raw observations are gone, so ``observe``
        order is not — irrelevant for exposition).
        """
        registry = cls()
        for name, entry in snapshot.items():
            labels = tuple(entry.get("labels", ()))
            kind = entry.get("type")
            if kind == "counter":
                family = registry.counter(name, entry.get("help", ""), labels)
                for row in entry.get("series", ()):
                    family.inc(row["value"], **row.get("labels", {}))
            elif kind == "gauge":
                family = registry.gauge(name, entry.get("help", ""), labels)
                for row in entry.get("series", ()):
                    family.set(row["value"], **row.get("labels", {}))
            elif kind == "histogram":
                edges = [
                    math.inf if b == "+Inf" else float(b)
                    for b in entry.get("buckets", DEFAULT_LATENCY_BUCKETS)
                ]
                family = registry.histogram(
                    name, entry.get("help", ""), labels, buckets=edges
                )
                edge_index = {
                    _format_value(e): i for i, e in enumerate(family.buckets)
                }
                edge_index["+Inf"] = len(family.buckets)
                for row in entry.get("series", ()):
                    key = family._label_values(row.get("labels", {}))
                    counts = [
                        int(row["buckets"].get(_format_value(e), 0))
                        for e in family.buckets
                    ]
                    counts.append(int(row["buckets"].get("+Inf", 0)))
                    with family._lock:
                        family._counts[key] = counts
                        family._sums[key] = float(row.get("sum", 0.0))
                        for edge, ex in row.get("exemplars", {}).items():
                            if edge in edge_index and isinstance(ex, dict):
                                family._exemplars.setdefault(key, {})[
                                    edge_index[edge]
                                ] = dict(ex)
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
        return registry

"""Timing shims: per-layer clocks installed from outside the program.

:func:`installed` wraps the public functions and methods that
:class:`~repro.serve.DistanceServer` calls on its read and publish paths
with a timer, and restores every original on exit.  Nothing under
``src/`` knows about it.  A target that a later version of the program
no longer has is skipped and listed in :attr:`Tracer.missing`; its
layer then reads 0.

Each wrapper adds its wall time (``perf_counter``) and one call to a
per-thread table, so ``query_many`` worker threads never race on a
shared sum.  ``DistanceServer.distance_on`` is also timed in thread CPU
time (``thread_time``): under the interpreter lock two workers
interleave, and only CPU time says how much of a batch's wall time the
per-pair reads themselves used.
"""

from __future__ import annotations

import importlib
import threading
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Callable, Dict, Iterator, List, Tuple

#: (module, attribute path, layer, clock) — the layers of both paths.
TARGETS: List[Tuple[str, str, str, Callable[[], float]]] = [
    # read path
    ("repro.serve.server", "DistanceServer.distance_on", "serve.distance_on", perf_counter),
    ("repro.serve.server", "DistanceServer.distance_on", "serve.distance_on.cpu", thread_time),
    ("repro.core.dynamic", "DynamicH2H.distance", "oracle.distance", perf_counter),
    ("repro.core.dynamic", "DynamicCH.distance", "oracle.distance", perf_counter),
    ("repro.h2h.tree", "TreeDecomposition.lca", "h2h.tree.lca", perf_counter),
    ("repro.obs.registry", "Counter.inc", "obs.registry", perf_counter),
    ("repro.obs.registry", "Gauge.set", "obs.registry", perf_counter),
    ("repro.obs.registry", "Histogram.observe", "obs.registry", perf_counter),
    # publish path
    ("repro.serve.server", "cow_apply", "reliability.cow_apply", perf_counter),
    ("repro.serve.server", "affected_vertices", "serve.aff", perf_counter),
    ("repro.perf.coalesce", "coalesce_updates", "perf.coalesce", perf_counter),
    ("repro.reliability.transactions", "snapshot_index", "reliability.txn_snapshot", perf_counter),
    ("repro.core.dynamic", "DynamicH2H.clone", "core.clone", perf_counter),
    ("repro.core.dynamic", "DynamicCH.clone", "core.clone", perf_counter),
    ("repro.core.dynamic", "inch2h_increase", "oracle.maint", perf_counter),
    ("repro.core.dynamic", "inch2h_decrease", "oracle.maint", perf_counter),
    ("repro.core.dynamic", "dch_increase", "oracle.maint", perf_counter),
    ("repro.core.dynamic", "dch_decrease", "oracle.maint", perf_counter),
    ("repro.serve.epoch", "EpochManager.publish", "serve.epoch.publish", perf_counter),
]

#: Methods of ``server.cache`` (an instance, so wrapped per server).
CACHE_METHODS = {
    "get": "serve.cache.get",
    "put": "serve.cache.put",
    "migrate": "serve.cache.migrate",
}

#: Layers timed inside one publish that do not nest in one another;
#: the publish's wall time minus their sum is the server's own share.
PUBLISH_CHILDREN = (
    "perf.coalesce",
    "core.clone",
    "reliability.txn_snapshot",
    "oracle.maint",
    "serve.aff",
    "serve.cache.migrate",
    "serve.epoch.publish",
)

Totals = Dict[str, Tuple[float, int]]


class Tracer:
    """Per-layer accumulated time and call counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, List]] = []
        self._lock = threading.Lock()
        self.missing: List[str] = []

    def _table(self) -> Dict[str, List]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, layer: str, fn: Callable, clock: Callable[[], float]) -> Callable:
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                table = self._table()
                entry = table.get(layer)
                if entry is None:
                    table[layer] = [elapsed, 1]
                else:
                    entry[0] += elapsed
                    entry[1] += 1

        timed.__wrapped__ = fn
        return timed

    def totals(self) -> Totals:
        """``layer -> (seconds, calls)`` summed over every thread."""
        out: Dict[str, Tuple[float, int]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (seconds, calls) in list(table.items()):
                s, c = out.get(layer, (0.0, 0))
                out[layer] = (s + seconds, c + calls)
        return out


def delta(after: Totals, before: Totals) -> Totals:
    """Per-layer difference of two :meth:`Tracer.totals` readings."""
    out = {}
    for layer, (seconds, calls) in after.items():
        s0, c0 = before.get(layer, (0.0, 0))
        out[layer] = (seconds - s0, calls - c0)
    return out


def seconds(totals: Totals, layer: str) -> float:
    return totals.get(layer, (0.0, 0))[0]


def calls(totals: Totals, layer: str) -> int:
    return totals.get(layer, (0.0, 0))[1]


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@contextmanager
def installed(tracer: Tracer, server) -> Iterator[Tracer]:
    """Wrap every target (and *server*'s cache methods) while the block runs."""
    undo: List[Callable[[], None]] = []

    def patch(owner, attr: str, layer: str, clock) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr), clock))
        if own:
            undo.append(lambda: setattr(owner, attr, original))
        else:
            undo.append(lambda: delattr(owner, attr))

    try:
        for module_name, path, layer, clock in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            patch(*found, layer, clock)
        cache = getattr(server, "cache", None)
        for method, layer in CACHE_METHODS.items():
            if cache is None or not callable(getattr(cache, method, None)):
                tracer.missing.append(f"server.cache.{method}")
                continue
            patch(cache, method, layer, perf_counter)
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()

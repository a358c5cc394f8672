"""The closed-loop client: one thread, next operation after the last returns.

:class:`Client` drives a :class:`~repro.serve.DistanceServer` through its
public API only (``distance``, ``query_many``, ``apply``, ``snapshot``)
and keeps what one pass measured in a :class:`PassResult`:

* wall-clock samples (per-call read latency, publish latency, batch wall
  time) — the end-to-end metrics;
* counts the program makes exactly (maintenance ops, ‖AFF‖, |DIFF|,
  |V_aff|, query pos-scan / relax work) — the currencies a same-seed
  rerun must repeat;
* with a :class:`~perfbench.shims.Tracer`, per-layer time split into
  read, batch and publish sections;
* around every timed call, a probe of the host's speed, by which
  :mod:`perfbench.report` scales the call's samples to a reference speed.

Sampled answers are checked against Dijkstra on the graph of the
snapshot that served them.
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import shims
from repro.baselines.dijkstra import dijkstra
from repro.core.bounds import subboundedness_ratio
from repro.core.changed import ch_change_metrics, h2h_change_metrics

#: OpCounter channels of one query's search work (H2H pos-scan, CH relax).
QUERY_WORK = ("pos_scan", "query_relax", "upward_relax")

Pair = Tuple[int, int]


@dataclass
class PassResult:
    setup_s: List[float] = field(default_factory=list)
    #: per-call read latency, in the order the reads were made
    read_latency_s: List[float] = field(default_factory=list)
    #: per timed reads() call: (reads, wall seconds of the loop)
    read_calls: List[Tuple[int, float]] = field(default_factory=list)
    #: per query_many call: (pairs, wall seconds)
    batches: List[Tuple[int, float]] = field(default_factory=list)
    #: per publish, in order; the runner repeats identical passes
    publish_s: List[float] = field(default_factory=list)
    #: host time of each build, timed reads() call, query_many call and
    #: publish: the mean of the probe before and after it
    #: (:func:`host_probe_all` around query_many, :func:`host_probe` else)
    setup_host: List[float] = field(default_factory=list)
    read_call_host: List[float] = field(default_factory=list)
    batch_host: List[float] = field(default_factory=list)
    publish_host: List[float] = field(default_factory=list)
    publishes_per_pass: int = 0
    updates: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    checked: int = 0
    cache_hits: int = 0
    cache_gets: int = 0
    #: per read group: (oracle calls, query work) — exact counts
    read_work: List[Tuple[int, int]] = field(default_factory=list)
    #: read groups whose counts cannot depend on thread timing (None: all).
    #: query_many fills the cache from worker threads in no fixed order,
    #: so once a full LRU cache has turned over, hits can differ.
    exact_read_groups: Optional[int] = None
    #: per publish: (|V_aff|, ops, ||AFF||, |DIFF|) — exact counts
    publish_counts: List[Tuple[int, int, int, int]] = field(default_factory=list)
    aff_budget_ratios: List[float] = field(default_factory=list)
    affected_share: List[float] = field(default_factory=list)
    carried: int = 0
    evicted: int = 0
    #: traced passes: per-layer totals by section, per-publish self time
    sections: Dict[str, shims.Totals] = field(default_factory=dict)
    publish_self_s: List[float] = field(default_factory=list)


def _cache_stats(server):
    return getattr(getattr(server, "cache", None), "stats", None)


#: Iterations of the host probe's loop (about 0.5 ms on a 2 GHz Xeon).
PROBE_LOOPS = 6_000


def host_probe() -> float:
    """Wall time of a fixed integer loop: how fast the host runs this
    process right now.  It touches nothing of the program and allocates
    no object the cyclic collector tracks, so the program's state cannot
    change it."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


def host_probe_all() -> float:
    """:func:`host_probe` on each core this process may use, in turn, by
    pinning the calling thread to it: the host time of a call whose work
    the server's worker threads spread over the cores."""
    cores = os.sched_getaffinity(0)
    try:
        times = []
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(host_probe())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(times) / len(times)


def _change_counts(index, report) -> Tuple[int, int, int]:
    """``(ops, ||AFF||, |DIFF|)`` of one maintenance report (Section 4/5)."""
    ops = int(sum(report.ops.values()))
    delta = report.increases + report.decreases
    if hasattr(index, "tree"):
        m = h2h_change_metrics(
            index, delta, report.changed_shortcuts, report.changed_super_shortcuts
        )
    else:
        m = ch_change_metrics(index, delta, report.changed_shortcuts)
    return ops, m.aff_norm, m.diff


class Client:
    """One closed-loop client of *server* (see the module docstring)."""

    def __init__(self, server, *, tracer: Optional[shims.Tracer] = None,
                 count: bool = False) -> None:
        self.server = server
        self.tracer = tracer
        self.count = count
        self.result = PassResult()

    def _failed(self, ops: int) -> None:
        """Count *ops* failed operations; print the first traceback."""
        if not self.result.failed:
            traceback.print_exc(file=sys.stderr)
        self.result.failed += ops

    # -- sections -------------------------------------------------------
    def _mark(self) -> Optional[shims.Totals]:
        return self.tracer.totals() if self.tracer is not None else None

    def _close(self, section: str, before: Optional[shims.Totals]) -> Optional[shims.Totals]:
        if before is None:
            return None
        spent = shims.delta(self.tracer.totals(), before)
        acc = self.result.sections.setdefault(section, {})
        for layer, (sec, calls) in spent.items():
            s0, c0 = acc.get(layer, (0.0, 0))
            acc[layer] = (s0 + sec, c0 + calls)
        return spent

    def _query_work(self) -> Tuple[int, int]:
        stats = _cache_stats(self.server)
        counter = getattr(self.server.snapshot().oracle, "counter", None)
        work = sum(counter[ch] for ch in QUERY_WORK) if counter is not None else 0
        misses = stats.misses if stats is not None else 0
        return misses, work

    # -- operations -----------------------------------------------------
    def reads(self, pairs: Sequence[Pair], *, timed: bool = True) -> List[Optional[float]]:
        """Per-call ``distance`` for each pair; returns the answers."""
        server = self.server
        r = self.result
        stats = _cache_stats(server)
        hits0, misses0 = (stats.hits, stats.misses) if stats is not None else (0, 0)
        work0 = self._query_work() if self.count and timed else None
        before = self._mark() if timed else None
        latency = r.read_latency_s if timed else []
        answers: List[Optional[float]] = []
        host = host_probe() if timed else 0.0
        start = perf_counter()
        for s, t in pairs:
            t0 = perf_counter()
            try:
                d = server.distance(s, t)
            except Exception:
                d = None
                self._failed(1)
            latency.append(perf_counter() - t0)
            answers.append(d)
        wall = perf_counter() - start
        if timed:
            host = (host + host_probe()) / 2
        self._close("read", before)
        r.attempted += len(pairs)
        if timed:
            r.read_calls.append((len(pairs), wall))
            r.read_call_host.append(host)
            if stats is not None:
                r.cache_hits += stats.hits - hits0
                r.cache_gets += stats.hits - hits0 + stats.misses - misses0
        if work0 is not None:
            misses1, work1 = self._query_work()
            calls = misses1 - work0[0] if stats is not None else len(pairs)
            r.read_work.append((calls, work1 - work0[1]))
        return answers

    def batch(self, pairs: Sequence[Pair]) -> Optional[List[float]]:
        """One ``query_many`` over *pairs*; returns the answers."""
        r = self.result
        host = host_probe_all()
        before = self._mark()
        t0 = perf_counter()
        try:
            answers = self.server.query_many(pairs)
        except Exception:
            answers = None
            self._failed(len(pairs))
        r.batches.append((len(pairs), perf_counter() - t0))
        self._close("batch", before)
        r.batch_host.append((host + host_probe_all()) / 2)
        r.attempted += len(pairs)
        return answers

    def publish(self, updates) -> None:
        """One ``apply`` of an update batch, timed to the new epoch's visibility."""
        r = self.result
        host = host_probe()
        before = self._mark()
        t0 = perf_counter()
        try:
            report = self.server.apply(updates)
        except Exception:
            report = None
            self._failed(1)
        wall = perf_counter() - t0
        spent = self._close("publish", before)
        r.publish_s.append(wall)
        r.publish_host.append((host + host_probe()) / 2)
        r.updates += len(updates)
        r.attempted += 1
        if spent is not None:
            children = sum(shims.seconds(spent, layer) for layer in shims.PUBLISH_CHILDREN)
            r.publish_self_s.append(wall - children)
        if report is None:
            return
        r.carried += report.carried
        r.evicted += report.evicted
        oracle = self.server.snapshot().oracle
        n = oracle.graph.n
        if report.affected is not None:
            r.affected_share.append(report.affected / n)
        if self.count and report.report is not None:
            ops, aff, diff = _change_counts(oracle.index, report.report)
            affected = -1 if report.affected is None else report.affected
            r.publish_counts.append((affected, ops, aff, diff))
            r.aff_budget_ratios.append(subboundedness_ratio(ops, aff))

    # -- correctness ----------------------------------------------------
    def verify(self, graph, pairs: Sequence[Pair], answers: Sequence[Optional[float]]) -> None:
        """Check served *answers* against Dijkstra on *graph*; None = failed op."""
        r = self.result
        for (s, t), d in zip(pairs, answers):
            if d is None:
                continue
            r.checked += 1
            if d != dijkstra(graph, s, targets=[t])[t]:
                r.wrong += 1
                r.failed += 1

"""`DistanceServer` — concurrent query serving over a dynamic oracle.

The front end the ROADMAP's "heavy traffic" goal needs: reader threads
answer ``sd(s, t)`` lock-free against the current epoch snapshot while a
writer applies DCH / IncH2H maintenance copy-on-write.  The cache is
decided by what an oracle's per-call read is.  Oracles whose per-call
read is a search (CH, directed CH, Dijkstra, :class:`ResilientOracle`)
sit behind a bounded LRU cache that short-circuits repeated pairs and
survives updates through AFF-scoped invalidation instead of wholesale
flushes.  Label oracles (``reads_labels``: :class:`DynamicH2H`,
:class:`DynamicDiH2H`) keep no cache: an answer is a scan of two labels,
which costs about what a cache get and put would, so ``server.cache``
is ``None`` and every read goes straight to the labels.

Read path (hot, lock-free except one cache-dict lock):
    snapshot = epochs.current          # atomic reference read
    cache.get(snapshot.epoch, s, t)    # epoch-exact, no stale hits
    snapshot.oracle.distance(s, t)     # on miss; snapshot never mutates
    latency.observe(elapsed)           # the read's one registry write
    (label oracles: the oracle call only, counted as a miss)

Batch read path (query_many, one snapshot for the whole batch):
    oracles with distance_many (CH, H2H and their directed twins):
    cache hits first (when there is a cache), then the misses: fewer
    than SMALL_BATCH pair by pair, more in one
    snapshot.oracle.distance_many call, their answers put back;
    the others (Dijkstra, ResilientOracle): distance_on per pair,
    chunked over the worker pool

Write path (serialized):
    next_oracle, report = cow_apply(frozen_oracle, batch)
    V_aff = affected_vertices(next_oracle, report)
    publish(next_oracle)               # atomic epoch swap
    cache.migrate(new_epoch, V_aff)    # evict only pairs touching V_aff
    (label oracles: cow_apply and the swap only; an H2H snapshot never
    mutates, so retired epochs keep answering their own truth)

With a :class:`~repro.reliability.degrade.DegradePolicy` attached the
write path gains overload-aware admission control
(``docs/degraded-mode.md``): batches are queued with :meth:`offer` and
drained with :meth:`pump`; once the backlog breaches the policy's
depth/age watermark the server enters ``DEGRADED_BOUNDED`` — each batch
is split at threshold-c, only the super-threshold part is published and
the rest is parked in a deferral journal, bounding publish cost while
:meth:`distance_bounded` stamps every answer with the journal's ε.
When the backlog subsides below the low watermark, one coalesced
catch-up apply folds the journal back in and the server is exact again.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import monotonic, perf_counter
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import names
from repro.obs.context import current_context, use_context
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
# ``_TRACE["sink"]`` is the one dict lookup a disabled span costs; a
# per-call read makes it without the ``span()`` call around it.
from repro.obs.trace import _STATE as _TRACE
from repro.obs.trace import span
from repro.perf.coalesce import coalesce_updates
from repro.reliability.degrade import (
    BoundedDistance,
    DeferredMaintenance,
    DegradePolicy,
    OracleState,
)
from repro.reliability.transactions import cow_apply
from repro.serve.aff import affected_vertices
from repro.serve.cache import QueryCache
from repro.serve.epoch import EpochManager, EpochSnapshot

__all__ = ["DistanceServer", "ServeReport", "SMALL_BATCH"]

#: A ``query_many`` batch whose misses number fewer than this is read
#: pair by pair: below it, the fixed cost of one vectorised
#: ``distance_many`` call exceeds the per-pair reads it replaces.
#: Measured on NY and CAL for CH and H2H (docs/performance.md, "Small
#: batches").
SMALL_BATCH = 16

#: Gauge encoding of the degradation ladder (docs/degraded-mode.md).
_STATE_VALUES = {
    OracleState.HEALTHY: 0,
    OracleState.DEGRADED_BOUNDED: 1,
    OracleState.FALLBACK: 2,
}


@dataclass
class ServeReport:
    """What one :meth:`DistanceServer.apply` publish did (DESIGN.md §4b).

    A server over a label oracle keeps no cache, so its publishes compute
    no ``V_aff`` and migrate nothing: ``affected`` is ``None`` and
    ``carried`` and ``evicted`` are 0.
    """

    epoch: int  #: the newly published epoch
    #: |V_aff| (None: unknown and the cache flushed, or no cache at all)
    affected: Optional[int]
    carried: int  #: cache entries that survived migration
    evicted: int  #: cache entries dropped by migration
    report: object = field(default=None, repr=False)  #: the oracle's own report
    #: Serving state after this apply (an :class:`OracleState` value).
    state: str = OracleState.HEALTHY.value
    #: Sub-threshold deltas parked in the deferral journal by this apply.
    deferred: int = 0
    #: Journal deltas folded in because the journal breached its own watermark.
    promoted: int = 0
    #: Journal deltas folded in by a load-subsided catch-up apply.
    caught_up: int = 0
    #: The max-stretch bound ε in force after this apply (0.0 ⇒ exact).
    epsilon: float = 0.0
    #: Raw updates absorbed by coalescing in this apply (later writes to
    #: the same edge / zero net change) — docs/performance.md § Coalescing.
    superseded: int = 0
    dropped: int = 0


def _batch_answers(oracle, ids: np.ndarray) -> List[float]:
    """``sd(s, t)`` for each row ``(s, t)`` of *ids*: pair by pair below
    :data:`SMALL_BATCH` rows, else one ``distance_many`` call."""
    if len(ids) < SMALL_BATCH:
        distance = oracle.distance
        return [distance(s, t) for s, t in ids.tolist()]
    return oracle.distance_many(ids[:, 0], ids[:, 1]).tolist()


def _queries_served(cache, latency, failed) -> dict:
    """The derived part of ``repro_serve_queries_total``.

    With a *cache*, every answered read looked its pair up once, so the
    counts are the cache's hits and misses less the lookups of reads
    that failed (*failed*, ``[hits, misses]``).  Without one, every
    per-call read observed its *latency* once, so its misses are the
    latency count; batches add their pairs to the counter themselves.
    """
    if cache is None:
        return {("miss",): latency.count()}
    stats = cache.stats
    return {("hit",): stats.hits - failed[0], ("miss",): stats.misses - failed[1]}


class DistanceServer:
    """Serve distance queries concurrently with index maintenance
    (DESIGN.md §4b: epoch snapshots + AFF-scoped caching).

    Parameters
    ----------
    oracle:
        A dynamic oracle with ``clone`` / ``distance`` / ``apply``
        (:class:`DynamicCH`, :class:`DynamicH2H`, the directed mirrors,
        or :class:`DijkstraOracle`).  The server takes ownership: the
        oracle becomes epoch 0's frozen snapshot and must not be mutated
        by anyone else afterwards.
    cache_capacity:
        Bound on cached pairs (LRU beyond it).  Ignored for label
        oracles (those whose ``reads_labels`` is true), which keep no
        cache: ``server.cache`` is then ``None``.
    workers:
        Worker threads for per-pair :meth:`query_many` batches (oracles
        without ``distance_many``: Dijkstra, :class:`ResilientOracle`).
    degrade:
        ``None`` (default) keeps every apply exact.  A
        :class:`DegradePolicy` (or ``True`` for the default policy)
        enables the bounded-error degraded tier: :meth:`offer` /
        :meth:`pump` gain overload-aware admission control and
        :meth:`distance_bounded` stamps answers with the journal's ε
        (``docs/degraded-mode.md``).
    injector:
        Optional :class:`~repro.reliability.FaultInjector` threaded
        into the deferral journal (labels ``defer`` / ``promote`` /
        ``catchup``); injected faults propagate out of the apply, the
        journal is never left half-folded.

    Example
    -------
    >>> from repro.graph import grid_network
    >>> from repro.core.dynamic import DynamicCH
    >>> server = DistanceServer(DynamicCH(grid_network(4, 4, seed=3)))
    >>> d0 = server.distance(0, 15)
    >>> server.distance(0, 15) == d0  # second call served from cache
    True
    """

    def __init__(
        self,
        oracle,
        *,
        cache_capacity: int = 65536,
        workers: int = 4,
        degrade=None,
        injector=None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self._epochs = EpochManager(oracle)
        # Directed graphs expose arcs(); their metric is asymmetric, so
        # the cache must keep (s, t) and (t, s) apart.
        symmetric = not hasattr(getattr(oracle, "graph", None), "arcs")
        # A label oracle answers with two label reads, which cost about
        # what a cache get and put would; only search oracles get a cache.
        self.cache: Optional[QueryCache] = None
        if not getattr(oracle, "reads_labels", False):
            self.cache = QueryCache(cache_capacity, symmetric=symmetric)
        if degrade is None or degrade is False:
            self._deferral: Optional[DeferredMaintenance] = None
        else:
            policy = degrade if isinstance(degrade, DegradePolicy) else DegradePolicy()
            self._deferral = DeferredMaintenance(
                policy, directed=not symmetric, injector=injector
            )
        self._overloaded = False
        self._ingress: Deque[Tuple[float, List]] = deque()
        self._ingress_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        #: The registry holding every serving metric (see docs/observability.md).
        self.metrics = m = MetricsRegistry()
        self._m_queries = m.counter(
            names.SERVE_QUERIES,
            "Distance queries served, by cache result.",
            ("result",),
        )
        self._m_latency = m.histogram(
            names.SERVE_QUERY_LATENCY,
            "Per-query wall time in seconds (cache hits included).",
        )
        # A read writes only its latency; the query counter is derived
        # from counts the cache or the histogram keep anyway.
        self._failed_lookups = [0, 0]
        self._failed_lock = threading.Lock()
        self._m_queries.derive(
            partial(_queries_served, self.cache, self._m_latency, self._failed_lookups)
        )
        self._m_publishes = m.counter(
            names.SERVE_PUBLISHES, "Epoch publishes completed."
        )
        self._m_publish_duration = m.histogram(
            names.SERVE_PUBLISH_DURATION,
            "Wall time of one apply-and-publish, in seconds.",
        )
        self._m_epoch = m.gauge(names.SERVE_EPOCH, "Currently served epoch.")
        # Read from the cache when the gauge is read: a miss changes the
        # size unless the LRU is full, so a written gauge would cost a
        # write on nearly every miss.  Without a cache it stays at 0.
        entries = m.gauge(
            names.SERVE_CACHE_ENTRIES, "Cached (s, t) pairs right now."
        )
        if self.cache is None:
            entries.set(0)
        else:
            entries.set_function(self.cache.__len__)
        self._m_cache_capacity = m.gauge(
            names.SERVE_CACHE_CAPACITY, "Cache capacity (LRU bound)."
        )
        self._m_cache_evicted = m.counter(
            names.SERVE_CACHE_EVICTED,
            "Cache entries dropped by AFF-scoped epoch migrations.",
        )
        self._m_cache_carried = m.counter(
            names.SERVE_CACHE_CARRIED,
            "Cache entries that survived epoch migrations.",
        )
        self._m_pins = m.counter(
            names.SERVE_SNAPSHOT_PINS,
            "Snapshots handed out via snapshot() (version pins).",
        )
        self._m_affected = m.histogram(
            names.SERVE_AFFECTED_VERTICES,
            "|V_aff| per publish of a cached server (see serve/aff.py).",
            buckets=COUNT_BUCKETS,
        )
        # Degraded-tier instrumentation (docs/degraded-mode.md) —
        # registered unconditionally so the catalogue check holds for
        # servers built without a degrade policy too.
        self._m_state = m.gauge(
            names.SERVE_STATE,
            "Degradation ladder rung: 0 healthy, 1 degraded_bounded, 2 fallback.",
        )
        self._m_epsilon = m.gauge(
            names.SERVE_EPSILON,
            "Max-stretch bound of served answers right now (0 = exact).",
        )
        self._m_deferred = m.gauge(
            names.SERVE_DEFERRED_EDGES,
            "Edges currently parked in the deferral journal.",
        )
        self._m_deferral_actions = m.counter(
            names.SERVE_DEFERRAL_ACTIONS,
            "Deferral-journal deltas by action (defer/cancel/promote/catchup).",
            ("action",),
        )
        self._m_pending_batches = m.gauge(
            names.SERVE_PENDING_BATCHES,
            "Batches offered but not yet pumped through admission control.",
        )
        self._m_pending_age = m.gauge(
            names.SERVE_PENDING_AGE,
            "Age of the oldest offered-but-unapplied batch, in seconds.",
        )
        self._m_coalesce_superseded = m.counter(
            names.SERVE_COALESCE_SUPERSEDED,
            "Raw updates absorbed by a later write to the same edge, per apply.",
        )
        self._m_coalesce_dropped = m.counter(
            names.SERVE_COALESCE_DROPPED,
            "Distinct edges whose net change was zero, per apply.",
        )
        for action in ("defer", "cancel", "promote", "catchup"):
            self._m_deferral_actions.inc(0, action=action)
        for result in ("hit", "miss"):
            self._m_queries.inc(0, result=result)
        self._m_epoch.set(0)
        self._m_cache_capacity.set(0 if self.cache is None else cache_capacity)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The currently served epoch."""
        return self._epochs.epoch

    @property
    def deferral(self) -> Optional[DeferredMaintenance]:
        """The deferral journal, or ``None`` without a degrade policy."""
        return self._deferral

    @property
    def overloaded(self) -> bool:
        """True while admission control considers the server overloaded."""
        return self._overloaded

    @property
    def state(self) -> OracleState:
        """Where on the degradation ladder the served answers sit.

        ``DEGRADED_BOUNDED`` whenever admission control is in overload
        or deltas are still parked (answers carry ε > 0 until the
        catch-up apply lands); the server never reaches ``FALLBACK`` —
        that rung belongs to :class:`ResilientOracle`.
        """
        if self._deferral is not None and (
            self._overloaded or self._deferral.pending
        ):
            return OracleState.DEGRADED_BOUNDED
        return OracleState.HEALTHY

    @property
    def epsilon(self) -> float:
        """The max-stretch bound currently in force (0.0 ⇒ exact)."""
        if self._deferral is None:
            return 0.0
        return self._deferral.epsilon

    def snapshot(self) -> EpochSnapshot:
        """The current epoch snapshot (hold it to pin a version)."""
        current = self._epochs.current
        self._m_pins.inc()
        return current

    def distance(self, s: int, t: int) -> float:
        """``sd(s, t)`` on the current snapshot, cache first."""
        return self.distance_on(self._epochs.current, s, t)

    def distance_bounded(self, s: int, t: int) -> BoundedDistance:
        """:meth:`distance` stamped with the ε bound it was served under.

        The guarantee: ``exact / (1 + ε) <= distance <= exact * (1 + ε)``
        where *exact* is the distance under the true (latest reported)
        weights.  ε is 0 whenever the journal is empty — parked deltas
        are the only divergence between served and true weights.

        The stamp comes from the snapshot that served the answer, not
        from the live journal: a catch-up publish landing between the
        snapshot capture and the ε read would otherwise zero ε and mark
        an answer computed on the stale pre-catch-up snapshot as exact.
        Each snapshot's ε is recorded at publish time and only ever
        raised in place (:meth:`EpochSnapshot.raise_epsilon`), so
        reading it *after* the distance can at worst over-state the
        bound.
        """
        snapshot = self._epochs.current
        distance = self.distance_on(snapshot, s, t)
        return BoundedDistance(distance, snapshot.epsilon)

    def distance_on(self, snapshot: EpochSnapshot, s: int, t: int) -> float:
        """``sd(s, t)`` on a pinned *snapshot*, cache first.

        Valid for retired snapshots too: the cache key includes the
        epoch, so answers from different versions never mix.  Without a
        cache (label oracles) the snapshot's oracle answers every read,
        counted as a miss.  The read's one registry write is its latency
        observation (``repro_serve_queries_total`` is derived, see
        :func:`_queries_served`); with no trace sink attached, tracing
        costs one check.
        """
        if _TRACE["sink"] is not None:
            return self._distance_traced(snapshot, s, t)
        start = perf_counter()
        cache = self.cache
        if cache is None:
            distance = snapshot.oracle.distance(s, t)
        else:
            distance = cache.get(snapshot.epoch, s, t)
            if distance is None:
                distance = self._read_through(snapshot, s, t)
        self._m_latency.observe(perf_counter() - start)
        return distance

    def _distance_traced(self, snapshot: EpochSnapshot, s: int, t: int) -> float:
        """:meth:`distance_on` under a ``serve.query`` span, whose trace
        id becomes the latency observation's exemplar."""
        with span(names.SPAN_SERVE_QUERY) as sp:
            start = perf_counter()
            cache = self.cache
            hit = False
            if cache is None:
                distance = snapshot.oracle.distance(s, t)
            else:
                distance = cache.get(snapshot.epoch, s, t)
                hit = distance is not None
                if not hit:
                    distance = self._read_through(snapshot, s, t)
            self._m_latency.observe(
                perf_counter() - start, sp.trace_id if sp.active else None
            )
            if sp.active:
                sp.set(epoch=snapshot.epoch, hit=hit)
            return distance

    def _read_through(self, snapshot: EpochSnapshot, s: int, t: int) -> float:
        """A cache miss: the snapshot's oracle answers and the answer is
        stored.  A miss whose read fails is taken back out of the query
        count, which counts answered reads only."""
        try:
            distance = snapshot.oracle.distance(s, t)
        except BaseException:
            self._unanswered(0, 1)
            raise
        self.cache.put(snapshot.epoch, s, t, distance)
        return distance

    def query_many(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Answer a batch of pairs against ONE consistent snapshot.

        The whole batch sees the same epoch even if a publish lands
        mid-batch.  An oracle with ``distance_many`` (CH, H2H and their
        directed twins) answers under one ``serve.query_many`` span: the
        cache answers the pairs it holds (when the server has a cache)
        and the misses go to the oracle, their answers stored back.
        Fewer than :data:`SMALL_BATCH` misses are read pair by pair,
        more in one vectorised ``distance_many`` call; both give the
        same answers, counts and cache puts.  A batch observes no
        per-pair latency.  Otherwise each pair takes the
        :meth:`distance_on` path: with more than one worker, the batch
        is chunked across the thread pool; the caller's trace context is
        carried into the workers so every per-pair ``serve.query`` span
        lands under the caller's span tree.
        """
        snapshot = self._epochs.current
        if hasattr(snapshot.oracle, "distance_many"):
            return self._query_vectorised(snapshot, pairs)
        if self._closed or self._workers == 1 or len(pairs) < 2 * self._workers:
            return [self.distance_on(snapshot, s, t) for s, t in pairs]
        pool = self._ensure_pool()
        ctx = current_context()
        chunk = (len(pairs) + self._workers - 1) // self._workers
        futures = [
            pool.submit(self._query_chunk, snapshot, pairs[i : i + chunk], ctx)
            for i in range(0, len(pairs), chunk)
        ]
        answers: List[float] = []
        for future in futures:
            answers.extend(future.result())
        return answers

    def _query_vectorised(self, snapshot: EpochSnapshot, pairs) -> List[float]:
        """:meth:`query_many` for an oracle with ``distance_many``: cache
        hits first, then every miss through :func:`_batch_answers`."""
        with span(names.SPAN_SERVE_QUERY_MANY) as sp:
            if sp.active:
                sp.set(epoch=snapshot.epoch, pairs=len(pairs))
            ids = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
            cache = self.cache
            if cache is None:
                answers = _batch_answers(snapshot.oracle, ids)
                self._m_queries.inc(len(answers), result="miss")
                return answers
            epoch = snapshot.epoch
            answers = [cache.get(epoch, s, t) for s, t in ids.tolist()]
            missing = [i for i, d in enumerate(answers) if d is None]
            if missing:
                miss = ids[missing]
                try:
                    found = _batch_answers(snapshot.oracle, miss)
                except BaseException:
                    self._unanswered(len(answers) - len(missing), len(missing))
                    raise
                for i, (s, t), d in zip(missing, miss.tolist(), found):
                    answers[i] = d
                    cache.put(epoch, s, t, d)
            return answers

    def _query_chunk(self, snapshot: EpochSnapshot, part, ctx) -> List[float]:
        """One worker's share of :meth:`query_many`, under the caller's
        trace context (contextvars do not cross pool threads on their
        own)."""
        with use_context(ctx):
            return [self.distance_on(snapshot, s, t) for s, t in part]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, updates, *, coalesce: bool = True) -> ServeReport:
        """Apply a weight-update batch and publish the next epoch.

        Builds the next version copy-on-write (readers keep answering on
        the old snapshot throughout), swaps it in atomically, then
        evicts exactly the cached pairs the update's AFF set can have
        changed (a server without a cache stops after the swap).
        Writers are serialized; on failure nothing is published and the
        cache is untouched.

        *coalesce* (default on — serving feeds re-report edges) merges
        the raw stream into its per-edge net effect before maintenance,
        so one propagation pass covers the whole batch; the published
        index is identical to per-update application.

        With a degrade policy attached, the batch goes through the same
        admission control as :meth:`pump` — under overload it is split
        at threshold-c and only partially published (the report's
        ``state`` / ``deferred`` / ``epsilon`` fields say what happened).
        If batches are already queued via :meth:`offer`, this batch is
        enqueued behind them and the queue drained in arrival order
        (an older queued write must not be applied on top of this one);
        the returned report is this batch's.
        """
        if self._deferral is not None:
            with self._ingress_lock:
                backlog = len(self._ingress)
                age = self._oldest_age_locked()
            if backlog:
                return self._apply_in_arrival_order(updates)
            return self._admit(updates, 1, 0, age, coalesce=coalesce)
        with span(names.SPAN_SERVE_APPLY) as sp:
            with self._write_lock:
                report = self._publish_locked(updates, coalesce=coalesce)
            if sp.active:
                sp.set(
                    epoch=report.epoch,
                    state=report.state,
                    epsilon=report.epsilon,
                    deferred=report.deferred,
                )
            return report

    def _apply_in_arrival_order(self, updates) -> ServeReport:
        """Enqueue *updates* behind the offered backlog and pump until
        they have been applied, preserving last-write-wins across the
        two ingestion APIs.  Returns the report of the final (= this)
        batch."""
        self.offer(updates)
        report: Optional[ServeReport] = None
        while True:
            with self._ingress_lock:
                pending = bool(self._ingress)
            if not pending:
                break
            step = self.pump()
            if step is None:  # a concurrent pump drained the queue
                break
            report = step
        if report is None:
            report = ServeReport(
                epoch=self._epochs.epoch,
                affected=0,
                carried=0,
                evicted=0,
                state=self.state.value,
                epsilon=self.epsilon,
            )
        return report

    def _publish_locked(self, updates, *, coalesce: bool) -> ServeReport:
        """The core copy-on-write publish; caller holds ``_write_lock``."""
        start = perf_counter()
        with span(names.SPAN_SERVE_PUBLISH) as sp:
            current = self._epochs.current
            next_oracle, report = cow_apply(
                current.oracle, updates, coalesce=coalesce
            )
            cache = self.cache
            aff = None if cache is None else affected_vertices(next_oracle, report)
            snapshot = self._epochs.publish(next_oracle, epsilon=self.epsilon)
            carried = evicted = 0
            if cache is not None:
                carried, evicted = cache.migrate(snapshot.epoch, aff)
            superseded = getattr(report, "superseded", 0) or 0
            dropped = getattr(report, "dropped", 0) or 0
            self._m_coalesce_superseded.inc(superseded)
            self._m_coalesce_dropped.inc(dropped)
            self._m_publishes.inc()
            self._m_epoch.set(snapshot.epoch)
            self._m_cache_evicted.inc(evicted)
            self._m_cache_carried.inc(carried)
            if aff is not None:
                self._m_affected.observe(len(aff))
            self._m_publish_duration.observe(perf_counter() - start)
            if sp.active:
                sp.set(
                    epoch=snapshot.epoch,
                    affected=None if aff is None else len(aff),
                    carried=carried,
                    evicted=evicted,
                )
            return ServeReport(
                epoch=snapshot.epoch,
                affected=None if aff is None else len(aff),
                carried=carried,
                evicted=evicted,
                report=report,
                state=self.state.value,
                epsilon=self.epsilon,
                superseded=superseded,
                dropped=dropped,
            )

    # ------------------------------------------------------------------
    # Overload-aware admission control (docs/degraded-mode.md)
    # ------------------------------------------------------------------
    def offer(self, updates) -> int:
        """Enqueue a batch for admission-controlled application.

        Returns the backlog depth after enqueueing.  Nothing is applied
        until :meth:`pump` drains the queue; the depth and the age of
        the oldest queued batch are the overload signals the admission
        watermarks act on.  Requires a degrade policy.
        """
        if self._deferral is None:
            raise RuntimeError("offer() requires a degrade policy")
        with self._ingress_lock:
            self._ingress.append((monotonic(), list(updates)))
            depth = len(self._ingress)
            age = self._oldest_age_locked()
        self._m_pending_batches.set(depth)
        self._m_pending_age.set(age)
        return depth

    def pump(self) -> Optional[ServeReport]:
        """Drain one step of the ingress queue through admission control.

        Pops the oldest offered batch and applies it in whatever mode
        the watermarks dictate.  With an empty queue it performs the
        pending catch-up apply if one is due, else returns ``None``.
        """
        if self._deferral is None:
            raise RuntimeError("pump() requires a degrade policy")
        with self._ingress_lock:
            depth_before = len(self._ingress)
            age = self._oldest_age_locked()
            item = self._ingress.popleft() if self._ingress else None
        if item is None:
            if self._deferral.pending:
                with self._write_lock:
                    self._overloaded = False
                    report = self._catch_up_locked(reason="catchup")
                    self._update_degrade_gauges()
                    return report
            return None
        return self._admit(
            item[1], depth_before, depth_before - 1, age, coalesce=True
        )

    def drain(self) -> List[ServeReport]:
        """:meth:`pump` until the queue is empty and the journal folded."""
        reports: List[ServeReport] = []
        while True:
            report = self.pump()
            if report is None:
                return reports
            reports.append(report)

    def _oldest_age_locked(self) -> float:
        return monotonic() - self._ingress[0][0] if self._ingress else 0.0

    def _admit(
        self,
        updates,
        depth_before: int,
        depth_after: int,
        age: float,
        *,
        coalesce: bool,
    ) -> ServeReport:
        """Route one batch by the overload watermarks (hysteresis:
        enter degraded at the high watermark, catch up at the low)."""
        policy = self._deferral.policy
        with span(names.SPAN_SERVE_APPLY) as sp:
            with self._write_lock:
                if (
                    depth_before >= policy.high_watermark
                    or age >= policy.max_batch_age_s
                ):
                    self._overloaded = True
                if self._overloaded and depth_after <= policy.low_watermark:
                    # Load has subsided: this batch becomes the catch-up.
                    self._overloaded = False
                if self._overloaded:
                    report = self._apply_degraded(updates)
                elif self._deferral.pending:
                    report = self._catch_up_locked(updates, reason="catchup")
                else:
                    report = self._publish_locked(updates, coalesce=coalesce)
                self._update_degrade_gauges(depth_after)
            if sp.active:
                sp.set(
                    epoch=report.epoch,
                    state=report.state,
                    epsilon=report.epsilon,
                    deferred=report.deferred,
                    depth=depth_after,
                )
            return report

    def _net_batch(self, updates):
        """Coalesce a raw batch; returns it with the served-weight accessor.

        Coalescing must drop no-ops against the *effective true* weight
        — the journal's parked target when an edge is deferred, the
        served graph weight otherwise.  Against the served weight, an
        update reverting a parked edge back to its served value would be
        dropped as a net no-op before it could cancel the journal
        entry, and the superseded parked target would win the catch-up
        fold (a last-write-wins violation).  Classification and parking
        still use the served weight, which is what the returned
        accessor reports.
        """
        graph = self._epochs.current.oracle.graph
        true_weight = graph.weight
        if self._deferral is not None:
            true_weight = self._deferral.effective_weight(graph.weight)
        with span(names.SPAN_SERVE_COALESCE) as sp:
            raw = list(updates)
            batch = coalesce_updates(
                raw, true_weight, directed=hasattr(graph, "arcs")
            )
            if sp.active:
                sp.set(
                    raw=len(raw),
                    net=len(batch.updates),
                    superseded=batch.superseded,
                    dropped=batch.dropped,
                )
        return batch, graph.weight

    def _apply_degraded(self, updates) -> ServeReport:
        """One overloaded apply: publish the super-threshold part only,
        park the rest; caller holds ``_write_lock``."""
        deferral = self._deferral
        batch, weight_of = self._net_batch(updates)
        self._m_coalesce_superseded.inc(batch.superseded)
        self._m_coalesce_dropped.inc(batch.dropped)
        major, minor = deferral.classify(batch.updates, weight_of)
        parked, cancelled = deferral.park(minor, weight_of)
        # The served snapshot diverges the moment deltas are parked:
        # raise its ε before the (possibly long) publish below, so
        # readers stamping from it never under-state the bound.
        self._epochs.current.raise_epsilon(deferral.epsilon)
        promoted = 0
        if deferral.should_promote():
            promoted = deferral.pending
            to_apply = deferral.fold(major, reason="promote")
            self._m_deferral_actions.inc(promoted, action="promote")
        else:
            deferral.note_exact(major)
            to_apply = major
        deferral.tick()
        self._m_deferral_actions.inc(parked, action="defer")
        self._m_deferral_actions.inc(cancelled, action="cancel")
        if to_apply:
            report = self._publish_locked(to_apply, coalesce=False)
        else:
            report = ServeReport(
                epoch=self._epochs.epoch, affected=0, carried=0, evicted=0
            )
        report.state = self.state.value
        report.epsilon = self.epsilon
        report.deferred = parked
        report.promoted = promoted
        report.superseded += batch.superseded
        report.dropped += batch.dropped
        return report

    def _catch_up_locked(self, updates=(), *, reason: str) -> ServeReport:
        """Fold the whole journal (plus *updates*) into one exact
        publish; caller holds ``_write_lock``."""
        deferral = self._deferral
        with span(names.SPAN_SERVE_CATCHUP) as sp:
            extra: List = []
            superseded = dropped = 0
            if updates:
                batch, _weight_of = self._net_batch(updates)
                extra = batch.updates
                superseded, dropped = batch.superseded, batch.dropped
                self._m_coalesce_superseded.inc(superseded)
                self._m_coalesce_dropped.inc(dropped)
            folded = deferral.pending
            to_apply = deferral.fold(extra, reason=reason)
            deferral.tick()
            self._m_deferral_actions.inc(folded, action=reason)
            if to_apply:
                report = self._publish_locked(to_apply, coalesce=False)
            else:
                report = ServeReport(
                    epoch=self._epochs.epoch, affected=0, carried=0, evicted=0
                )
            report.state = self.state.value
            report.epsilon = self.epsilon
            report.caught_up = folded
            report.superseded += superseded
            report.dropped += dropped
            if sp.active:
                sp.set(
                    epoch=report.epoch,
                    folded=folded,
                    extra=len(extra),
                    epsilon=report.epsilon,
                )
            return report

    def _update_degrade_gauges(self, depth: Optional[int] = None) -> None:
        self._m_state.set(_STATE_VALUES[self.state])
        self._m_epsilon.set(self.epsilon)
        self._m_deferred.set(self._deferral.pending)
        if depth is None:
            with self._ingress_lock:
                depth = len(self._ingress)
                age = self._oldest_age_locked()
        else:
            with self._ingress_lock:
                age = self._oldest_age_locked()
        self._m_pending_batches.set(depth)
        self._m_pending_age.set(age)

    # ------------------------------------------------------------------
    # Instrumentation / lifecycle
    # ------------------------------------------------------------------
    def _unanswered(self, hits: int, misses: int) -> None:
        """Take the cache lookups of failed reads out of the query count."""
        with self._failed_lock:
            self._failed_lookups[0] += hits
            self._failed_lookups[1] += misses

    def stats(self) -> dict:
        """Everything ``repro cache-stats`` prints, as one dict.

        Without a cache (label oracles) ``cache`` is ``None`` and the
        size and capacity read 0, as their gauges do.
        """
        cache = self.cache
        out = {
            "epoch": self.epoch,
            "cache_size": 0 if cache is None else len(cache),
            "cache_capacity": 0 if cache is None else cache.capacity,
            "cache": None if cache is None else cache.stats.as_dict(),
        }
        if self._deferral is not None:
            with self._ingress_lock:
                depth = len(self._ingress)
                age = self._oldest_age_locked()
            out["degraded"] = {
                "state": self.state.value,
                "overloaded": self._overloaded,
                "pending_batches": depth,
                "pending_age_s": age,
                **self._deferral.stats(),
            }
        return out

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="repro-serve",
                )
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (queries stay possible, serially)."""
        with self._pool_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "DistanceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

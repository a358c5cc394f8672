"""Graceful degradation: a self-healing :class:`DistanceOracle` wrapper.

The index oracles (CH / H2H) are fast but stateful; the Dijkstra
baseline is slow but stateless and therefore *cannot* be corrupted by a
failed maintenance step.  :class:`ResilientOracle` composes the two so a
fault costs latency, never correctness:

* **updates** are applied to the primary in place; if a maintenance
  step fails, the rest of the batch is committed to the graph alone
  (the graph's ``apply_batch`` assigns absolute weights, so it is
  idempotent over a half-applied batch) and the half-maintained index
  is never read again until a rebuild recomputes it from the graph —
  the network is always current even when the index is not;
* **degraded mode** — after a maintenance failure, a query-time index
  error, or a failed integrity check, queries fall back to ground-truth
  Dijkstra on the current graph, so answers stay exact;
* **self-healing** — while degraded, each call attempts one
  ``rebuild()`` of the primary (bounded by ``max_rebuild_attempts`` per
  episode, optionally re-verified before trusting), amortising the
  recovery over the call path instead of blocking any single caller for
  unbounded retries;
* **durability** — with a :class:`ReliableStore` attached, accepted
  batches are journaled before being applied and a checkpoint is taken
  whenever the oracle (re)enters healthy state;
* **bounded degradation** — with a :class:`DegradePolicy` attached, a
  third rung appears between healthy and fallback: sub-threshold weight
  changes are parked in a :class:`DeferredMaintenance` journal and
  answers are served from the boundedly-stale index with a tracked
  max-stretch guarantee ``ε <= threshold_c - 1``
  (``docs/degraded-mode.md``).  On any transition to the Dijkstra
  fallback the journal is flushed into the graph first, so fallback
  answers stay *exact* — the stretch bound only ever applies to the
  fast path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.oracle import DijkstraOracle
from repro.errors import IntegrityError, ReproError
from repro.graph.graph import RoadNetwork, WeightUpdate
from repro.obs import names
from repro.obs.trace import span
from repro.reliability.degrade import (
    BoundedDistance,
    DeferredMaintenance,
    DegradePolicy,
    OracleState,
)
from repro.reliability.transactions import validate_batch
from repro.reliability.verify import verify_index

__all__ = ["ResilientOracle"]


class ResilientOracle:
    """A :class:`DistanceOracle` (DESIGN.md §4a: graceful degradation) that
    survives maintenance failures and
    index corruption by degrading to exact Dijkstra answers while it
    heals itself.

    Parameters
    ----------
    primary:
        The fast oracle (:class:`DynamicCH` / :class:`DynamicH2H`, or
        any :class:`DistanceOracle` with an ``index`` attribute).
    store:
        Optional :class:`ReliableStore`; accepted batches are journaled
        to it and checkpoints taken on recovery.
    max_rebuild_attempts:
        Rebuild budget per degradation episode; once exhausted the
        oracle stays on the Dijkstra fallback until :meth:`rebuild` or
        :meth:`reset` is called explicitly.
    verify_sample:
        When set, a successful rebuild is only trusted after a sampled
        :func:`verify_index` pass of this many entries.
    degrade:
        ``None`` (default) keeps the two-state behaviour.  A
        :class:`DegradePolicy` (or ``True`` for the default policy)
        enables the ``DEGRADED_BOUNDED`` rung: batches are split at the
        policy's threshold-c, the sub-threshold part is parked in a
        deferral journal, and :attr:`epsilon` /
        :meth:`distance_bounded` expose the resulting stretch bound.
    injector:
        Optional :class:`FaultInjector` threaded into the deferral
        journal (labels ``defer`` / ``promote`` / ``catchup``).  An
        injected fault models a process crash at that point: it
        propagates to the caller, and recovery goes through the
        attached :class:`ReliableStore` (whose WAL already holds every
        accepted batch, so no deferred delta is lost or double-applied).
    """

    def __init__(
        self,
        primary,
        *,
        store=None,
        max_rebuild_attempts: int = 3,
        verify_sample: Optional[int] = None,
        degrade=None,
        injector=None,
    ) -> None:
        self._primary = primary
        self._graph: RoadNetwork = primary.graph
        self._fallback = DijkstraOracle(self._graph)
        self._store = store
        self._max_attempts = max_rebuild_attempts
        self._attempts_left = max_rebuild_attempts
        self._verify_sample = verify_sample
        if degrade is None or degrade is False:
            self._deferral: Optional[DeferredMaintenance] = None
        else:
            policy = degrade if isinstance(degrade, DegradePolicy) else DegradePolicy()
            self._deferral = DeferredMaintenance(
                policy,
                directed=hasattr(self._graph, "arcs"),
                injector=injector,
            )
        self.degraded = False
        #: Chronological ``(event, detail)`` record of failures/recoveries.
        self.events: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # DistanceOracle protocol
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoadNetwork:
        """The road network — always current, even in degraded mode."""
        return self._graph

    @property
    def primary(self):
        """The wrapped fast oracle."""
        return self._primary

    @property
    def fallback(self) -> DijkstraOracle:
        """The index-free ground-truth oracle used while degraded."""
        return self._fallback

    @property
    def deferral(self) -> Optional[DeferredMaintenance]:
        """The deferral journal, or ``None`` without a degrade policy."""
        return self._deferral

    @property
    def state(self) -> OracleState:
        """Where on the degradation ladder this oracle currently sits."""
        if self.degraded:
            return OracleState.FALLBACK
        if self._deferral is not None and self._deferral.pending:
            return OracleState.DEGRADED_BOUNDED
        return OracleState.HEALTHY

    @property
    def epsilon(self) -> float:
        """The max-stretch bound currently in force (0.0 ⇒ exact)."""
        if self._deferral is None:
            return 0.0
        return self._deferral.epsilon

    def distance(self, s: int, t: int) -> float:
        """Shortest distance — exact in ``HEALTHY`` and ``FALLBACK``,
        within a factor ``1 + epsilon`` of exact in ``DEGRADED_BOUNDED``
        (use :meth:`distance_bounded` to get the stamp)."""
        if self.degraded:
            self._try_rebuild()
        if not self.degraded:
            try:
                return self._primary.distance(s, t)
            except ReproError as exc:
                self._degrade("query", exc)
        return self._fallback.distance(s, t)

    def distance_bounded(self, s: int, t: int) -> BoundedDistance:
        """:meth:`distance` stamped with the ε bound it was served under.

        The guarantee (proven by construction, re-checked differentially
        by the hypothesis suite and ``repro verify --bounded``):
        ``exact / (1 + ε) <= distance <= exact * (1 + ε)``.
        """
        return BoundedDistance(self.distance(s, t), self.epsilon)

    def apply(self, updates: Sequence[WeightUpdate]):
        """Accept a batch; the graph always advances, the index only if
        its maintenance succeeds for the whole batch.

        A malformed batch (unknown edge, bad weight, duplicate edge) is
        the caller's error: it raises before anything is journaled or
        mutated.  A well-formed batch is journaled first (write-ahead),
        then applied; once this method returns the batch is durable and
        visible, even if index maintenance failed along the way.
        """
        validate_batch(self._graph, updates)
        if self._store is not None:
            self._store.log(updates)
        if self.degraded:
            self._graph.apply_batch(updates)
            self._try_rebuild()
            return None
        if self._deferral is not None:
            return self._apply_bounded(updates)
        try:
            return self._maintain(updates, "apply")
        except ReproError:
            self._try_rebuild()
            return None

    def _apply_bounded(self, updates: Sequence[WeightUpdate]):
        """Threshold-c admission: park the sub-threshold part of the
        batch, apply the rest exactly (folding the journal back in when
        it breaches its own depth/age watermark)."""
        deferral = self._deferral
        major, minor = deferral.classify(updates, self._graph.weight)
        deferral.park(minor, self._graph.weight)
        if deferral.should_promote():
            to_apply = deferral.fold(major, reason="promote")
        else:
            # An exact write supersedes any parked delta on its edge.
            deferral.note_exact(major)
            to_apply = major
        deferral.tick()
        if not to_apply:
            return None
        try:
            return self._maintain(to_apply, "apply")
        except ReproError:
            self._try_rebuild()
            return None

    def catch_up(self):
        """Fold the whole deferral journal into one exact catch-up
        apply, returning the oracle to ``HEALTHY`` (ε back to 0).

        No-op (returns ``None``) when nothing is parked.  On success
        the attached store is checkpointed — the index is exact again,
        so the WAL can be truncated.  A maintenance failure during the
        catch-up degrades to the Dijkstra fallback with the journal
        flushed into the graph, so answers stay exact either way.
        """
        if self._deferral is None or not self._deferral.pending:
            return None
        pending = self._deferral.pending
        batch = self._deferral.fold(reason="catchup")
        try:
            report = self._maintain(batch, "catchup")
        except ReproError:
            self._try_rebuild()
            return None
        self.events.append(("caught-up", f"{pending} deferred delta(s)"))
        if self._store is not None:
            self._store.checkpoint(self._primary)
        return report

    def rebuild(self) -> None:
        """Force a full rebuild now and reset the retry budget."""
        if self._deferral is not None and self._deferral.pending:
            # Bring the graph to the true weights so the rebuilt index
            # reflects reality, not the served (stale) state.
            self._graph.apply_batch(self._deferral.clear())
        self._attempts_left = self._max_attempts
        self._primary.rebuild()
        self._mark_healthy("manual rebuild")

    # ------------------------------------------------------------------
    # Health management
    # ------------------------------------------------------------------
    def check_integrity(
        self, sample: Optional[int] = None, seed: int = 0
    ) -> bool:
        """Run an integrity sweep of the primary index against the graph;
        degrade (and start self-healing) if it fails.

        Returns True when the sweep found nothing wrong; False when
        corruption was detected (even if the piggybacked rebuild already
        healed it) or the oracle was already degraded.
        """
        if self.degraded:
            return False
        try:
            verify_index(self._primary.index, self._graph,
                         sample=sample, seed=seed)
        except IntegrityError as exc:
            self._degrade("verify", exc)
            self._try_rebuild()
            return False
        return True

    def reset(self) -> None:
        """Refill the rebuild budget (e.g. after an operator fixed the
        underlying cause) without forcing a rebuild right now."""
        self._attempts_left = self._max_attempts

    def _maintain(self, batch: Sequence[WeightUpdate], event: str):
        """Run the primary's maintenance on a validated *batch* in place.

        Maintenance mutates graph and index step by step, so a failure
        can leave both half-updated.  On any exception the graph takes
        the whole batch (absolute weights: idempotent over the applied
        prefix) and the oracle degrades — the fallback answers from the
        graph, and the index stays unread until a rebuild recomputes it —
        before the exception propagates.  The caller handles
        :class:`ReproError`; anything else reaches the caller's caller.
        """
        try:
            return self._primary.apply(batch)
        except BaseException as exc:
            self._graph.apply_batch(batch)
            self._degrade(event, exc)  # flushes the journal first
            raise

    def _degrade(self, event: str, exc: BaseException) -> None:
        with span(names.SPAN_RESILIENT_FALLBACK) as sp:
            flushed = 0
            if self._deferral is not None and self._deferral.pending:
                # The fallback runs Dijkstra on the graph: flush the parked
                # true weights into it so fallback answers are exact rather
                # than inheriting the bounded staleness.
                batch = self._deferral.clear()
                flushed = len(batch)
                self._graph.apply_batch(batch)
            self.degraded = True
            self.events.append((f"degraded:{event}", str(exc)))
            if sp.active:
                sp.set(event=event, error=str(exc)[:200], flushed=flushed)

    def _mark_healthy(self, detail: str) -> None:
        self.degraded = False
        self._attempts_left = self._max_attempts
        self.events.append(("recovered", detail))
        if self._store is not None:
            self._store.checkpoint(self._primary)

    def _try_rebuild(self) -> None:
        """One bounded self-healing attempt, piggybacked on a call."""
        if not self.degraded or self._attempts_left <= 0:
            return
        self._attempts_left -= 1
        try:
            self._primary.rebuild()
        except ReproError as exc:
            self.events.append(("rebuild-failed", str(exc)))
            return
        if self._verify_rebuild():
            self._mark_healthy("rebuild")

    def _verify_rebuild(self) -> bool:
        if self._verify_sample is None:
            return True
        try:
            verify_index(self._primary.index, self._graph,
                         sample=self._verify_sample)
        except IntegrityError as exc:
            self.events.append(("rebuild-unverified", str(exc)))
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"ResilientOracle({type(self._primary).__name__}, "
            f"{self.state.value}, attempts_left={self._attempts_left})"
        )

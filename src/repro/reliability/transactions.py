"""Copy-on-write update application: a new version is published whole or
never.

The maintenance algorithms (DCH / IncH2H) mutate the graph and the index
in several steps — increases first, then decreases, each touching both
structures.  An exception thrown mid-way (bad update, injected fault,
resource failure) leaves that pair *diverged*: the graph half-updated
and the index describing a network that no longer exists.

:func:`cow_apply` never lets a reader see such a pair.  It validates the
batch against the caller's graph, clones the oracle and runs maintenance
on the private clone only.  On success the clone is the next version;
on any failure the half-mutated clone is dropped, and the caller's
oracle is bit-identical because nothing ever wrote to it.  No rollback
pre-image is taken: a version nobody else can see needs no undo.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import UpdateError
from repro.graph.graph import WeightUpdate, canonical_edge

__all__ = ["cow_apply", "validate_batch"]


def validate_batch(
    graph, updates: Sequence[WeightUpdate]
) -> List[Tuple[Tuple[int, int], float]]:
    """Validate a batch against *graph* without mutating anything.

    Checks that every edge exists and every weight is a valid
    non-negative number, and returns the pre-update weight of each
    distinct edge.  On a directed graph (one with ``arcs``) an update
    names an ordered arc, so ``(u, v)`` and ``(v, u)`` are distinct —
    the same keying :func:`repro.perf.coalesce.coalesce_updates` uses.

    Raises
    ------
    GraphError
        If an edge is unknown or a weight is invalid.
    UpdateError
        If the same edge (or arc) appears twice in the batch.
    """
    directed = hasattr(graph, "arcs")
    pre: List[Tuple[Tuple[int, int], float]] = []
    seen = set()
    for (u, v), w in updates:
        key = (u, v) if directed else canonical_edge(u, v)
        if key in seen:
            what = f"arc ({u} -> {v})" if directed else f"edge ({u}, {v})"
            raise UpdateError(f"{what} appears twice in one batch")
        seen.add(key)
        pre.append((key, graph.weight(u, v)))
        graph._check_weight(w)
    return pre


def cow_apply(
    oracle, updates: Sequence[WeightUpdate], *, coalesce: bool = False
):
    """Copy-on-write apply: build the *next* version, never touch this one.

    With *coalesce*, the raw stream is first merged into its per-edge net
    effect against the oracle's current weights
    (:func:`repro.perf.coalesce.coalesce_updates`; keyed per ordered arc
    for directed oracles), so repeated-edge streams become applicable.
    The batch then passes :func:`validate_batch` against the oracle's
    graph, so a malformed batch raises before anything is cloned.
    Finally the oracle is cloned (graph and index) and the batch applied
    to the clone.

    Returns ``(next_oracle, report)``.  *oracle* itself is left
    bit-identical whatever happens, so readers holding it keep answering
    consistently the whole time the update is in flight; if maintenance
    raises, the half-mutated clone is simply dropped and the exception
    propagates.  This is the maintenance primitive behind
    :mod:`repro.serve`'s epoch snapshots: build the next version
    copy-on-write, then publish it with an atomic epoch swap.

    Any oracle exposing ``clone`` / ``graph`` / ``apply`` works
    (:class:`DynamicCH`, :class:`DynamicH2H`, their directed mirrors,
    :class:`DijkstraOracle`).
    """
    clone = getattr(oracle, "clone", None)
    if clone is None:
        raise UpdateError(
            f"{type(oracle).__name__} does not support copy-on-write "
            "(no clone() method)"
        )
    graph = oracle.graph
    superseded = dropped = 0
    if coalesce:
        from repro.perf.coalesce import coalesce_updates

        batch = coalesce_updates(
            updates, graph.weight, directed=hasattr(graph, "arcs")
        )
        updates = batch.updates
        superseded, dropped = batch.superseded, batch.dropped
    validate_batch(graph, updates)
    next_oracle = clone()
    report = next_oracle.apply(updates)
    if coalesce and report is not None and hasattr(report, "superseded"):
        # Coalescing happened here, not inside the facade (which ran
        # with its own coalesce off) — surface the counters on the
        # report so per-apply consumers (the serve layer's obs
        # registry) see them.  docs/performance.md § Coalescing.
        report.superseded = superseded
        report.dropped = dropped
    return next_oracle, report

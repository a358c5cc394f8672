"""Vectorized Equation (*) / Equation (<>) kernels.

Every kernel here evaluates the paper's recurrences for a whole
(vertex, ancestor-slice) at once with numpy row gathers over the padded
``dis``/``sup`` matrices, replacing a scalar Python inner loop somewhere
in the maintenance layer:

===========================  ==============================================
kernel                       replaces
===========================  ==============================================
:func:`candidate_row`        per-ancestor seed scans of Algorithms 4/5
:func:`candidate_block`      per-entry Equation (*) terms (one neighbor at
                             a time) in recompute loops
:func:`star_eval` /          ``evaluate_entry``/``recompute_entry`` called
:func:`star_recompute`       once per popped depth of the same vertex
:func:`fill_row`             the per-depth construction loop of
                             H2HIndexing step 3
:func:`directed_sd_row` /    the per-depth ``_sd`` loops of the directed
:func:`directed_candidate_row`  seed scans and construction
:func:`relax_arrays`         the per-triple weight reads of the DCH±
                             ``scp+`` pop loops
:func:`pos_scan_many`        one ``h2h_distance`` /
                             ``directed_h2h_distance`` call per pair of
                             a query batch
===========================  ==============================================

Bit-identity contract
---------------------
All kernels are drop-in replacements for the scalar reference paths
(``H2HIndex.evaluate_entry``, ``DirectedH2HIndex.evaluate_entry``, the
per-triple DCH loops, the scalar H2H queries), which stay in the
codebase precisely so the differential tests in
``tests/test_perf_kernels.py`` and ``tests/test_h2h_batch_query.py``
can assert the two produce bit-identical ``dis``/``sup``/shortcut state
and answers.  The identity holds exactly (not approximately) because
each kernel performs the same IEEE-754 operations as its scalar
counterpart: one ``weight + sd`` addition per candidate (float
addition is commutative, so operand order is free), an exact ``min``
over the same candidate set, and exact ``==`` tie counting — no
reassociation, no fused intermediates.

The kernels duck-type their ``index`` argument: anything exposing
``sc``/``tree``/``dis``/``sup`` the way :class:`repro.h2h.index.H2HIndex`
does.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "DCH_KERNEL_MIN_TRIPLES",
    "candidate_row",
    "candidate_block",
    "star_eval",
    "star_recompute",
    "refresh_support",
    "fill_row",
    "directed_sd_row",
    "directed_candidate_row",
    "directed_fill_vertex",
    "relax_arrays",
    "pos_scan_many",
]

#: Below this many ``scp+`` triples the DCH pop loops stay scalar: numpy
#: gather/compare setup costs more than a handful of float compares, and
#: the microbench gate requires the kernels to never lose to the scalar
#: path on small inputs.
DCH_KERNEL_MIN_TRIPLES = 16


# ----------------------------------------------------------------------
# Undirected Equation (*) kernels
# ----------------------------------------------------------------------
def candidate_row(index, u: int, v: int, weight: float) -> np.ndarray:
    """The Equation (*) candidates of *u* contributed by one upward
    neighbor *v* at the given shortcut weight, over every proper
    ancestor depth ``0 .. depth(u)-1``.

    ``sd(v, a)`` comes from Equation (nabla): one contiguous slice of
    ``dis(v)`` for the ancestors of *v* (the diagonal ``dis(v)[depth(v)]
    = 0`` covers ``a = v``) plus one fancy-indexed gather of column
    ``depth(v)`` along ``anc(u)`` for the deeper ancestors.
    """
    tree = index.tree
    du = int(tree.depth[u])
    dv = int(tree.depth[v])
    dis = index.dis
    row = np.empty(du, dtype=np.float64)
    split = min(dv + 1, du)
    row[:split] = dis[v, :split]
    if split < du:
        row[split:] = dis[tree.anc[u][split:du], dv]
    row += weight
    return row


def candidate_block(index, u: int, depths: np.ndarray) -> np.ndarray:
    """Equation (*) candidates of *u* for the given ancestor depths,
    one row per upward neighbor (``|nbr+(u)| x len(depths)``)."""
    tree = index.tree
    dis = index.dis
    anc_u = tree.anc[u]
    depth = tree.depth
    upward = index.sc.upward(u)
    weights = index.sc.upward_weights(u)
    block = np.empty((len(upward), len(depths)), dtype=np.float64)
    for i, v in enumerate(upward):
        dv = int(depth[v])
        shallow = depths <= dv
        row = block[i]
        row[shallow] = dis[v, depths[shallow]]
        deep = ~shallow
        if deep.any():
            row[deep] = dis[anc_u[depths[deep]], dv]
        row += weights[i]
    return block


def star_eval(
    index, u: int, depths: np.ndarray, counter: Optional[OpCounter] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate Equation (*) for super-shortcuts ``(u, da)`` over a whole
    depth slice at once; returns ``(values, supports)`` without mutating.

    Bit-identical to calling ``index.evaluate_entry(u, da)`` per depth:
    the same ``weight + sd`` candidates, an exact columnwise ``min``, and
    the support as the count of finite candidates attaining it.
    """
    ops = resolve_counter(counter)
    upward = index.sc.upward(u)
    ops.add("star_term", len(upward) * len(depths))
    if len(depths) == 0 or not upward:
        values = np.full(len(depths), math.inf, dtype=np.float64)
        return values, np.zeros(len(depths), dtype=np.int64)
    block = candidate_block(index, u, depths)
    values = block.min(axis=0)
    finite = ~np.isinf(block)
    supports = ((block == values) & finite).sum(axis=0)
    return values, supports


def star_recompute(
    index, u: int, depths: np.ndarray, counter: Optional[OpCounter] = None
) -> np.ndarray:
    """Recompute and store ``dis[u, depths]`` / ``sup[u, depths]`` from
    Equation (*) — line 23 of Algorithm 4, batched over one vertex's
    popped depth group.  Returns the new values."""
    values, supports = star_eval(index, u, depths, counter)
    index.dis[u, depths] = values
    index.sup[u, depths] = supports
    return values


def refresh_support(index, u: int, depths: np.ndarray) -> None:
    """Vectorized support repair for the given entries of *u*.

    Recomputes ``sup[u, depths]`` from Equation (*) (without touching the
    distances, which must already be at their fixpoint)."""
    if len(depths) == 0:
        return
    block = candidate_block(index, u, depths)
    best = index.dis[u, depths]
    finite = ~np.isinf(block)
    index.sup[u, depths] = ((block == best) & finite).sum(axis=0)


def fill_row(sc, tree, dis: np.ndarray, sup: np.ndarray, u: int) -> None:
    """Compute ``dis(u)`` / ``sup(u)`` from Equation (*), vectorized.

    Requires the rows of every vertex in ``nbr+(u)`` (all ancestors of
    *u*) to be final already; any top-down processing order satisfies
    this.  Shared by full construction and subtree rebuilds.
    """
    depth = tree.depth
    du = int(depth[u])
    if du == 0:
        dis[u, 0] = 0.0
        return
    anc_u = tree.anc[u]
    upward = sc.upward(u)
    weights = sc.upward_weights(u)
    candidates = np.empty((len(upward), du), dtype=np.float64)
    for i, v in enumerate(upward):
        dv = int(depth[v])
        w_uv = weights[i]
        row = candidates[i]
        # Depths 0..dv: a is an ancestor of v (or v itself) -> dis(v)[da].
        row[: dv + 1] = dis[v, : dv + 1]
        # Depths dv+1..du-1: v is a proper ancestor of a -> dis(a)[dv].
        if dv + 1 < du:
            row[dv + 1 :] = dis[anc_u[dv + 1 : du], dv]
        row += w_uv
    best = candidates.min(axis=0)
    dis[u, :du] = best
    dis[u, du] = 0.0
    finite = ~np.isinf(best)
    sup[u, :du] = ((candidates == best) & finite).sum(axis=0)
    sup[u, du] = 0


# ----------------------------------------------------------------------
# Directed Equation (*) kernels
# ----------------------------------------------------------------------
def directed_sd_row(index, direction: int, u: int, via: int) -> np.ndarray:
    """Directed Equation (nabla) over a whole ancestor slice:
    ``sd(via -> a)`` (TO) or ``sd(a -> via)`` (FROM) for every proper
    ancestor depth ``0 .. depth(u)-1`` of *u*, with *via* an ancestor
    of *u*.

    Same gather shape as :func:`candidate_row`: shallow depths read the
    ``dis[direction]`` row of *via* (its zero diagonal covers
    ``a = via``), deeper depths read column ``depth(via)`` of the
    *opposite* matrix along ``anc(u)``.
    """
    tree = index.tree
    du = int(tree.depth[u])
    dv = int(tree.depth[via])
    row = np.empty(du, dtype=np.float64)
    split = min(dv + 1, du)
    row[:split] = index.dis[direction][via, :split]
    if split < du:
        row[split:] = index.dis[1 - direction][tree.anc[u][split:du], dv]
    return row


def directed_candidate_row(
    index, direction: int, u: int, via: int, weight: float
) -> np.ndarray:
    """Directed Equation (*) candidates of *u* through one upward
    neighbor *via* at the given arc weight, over depths
    ``0 .. depth(u)-1`` (``weight + sd`` — commutative, so the TO and
    FROM operand orders of the scalar path give the same bits)."""
    row = directed_sd_row(index, direction, u, via)
    row += weight
    return row


def directed_fill_vertex(index, u: int) -> None:
    """Compute both directed distance rows of *u* from Equation (*),
    vectorized — the construction inner loop of directed H2HIndexing.

    ``dis[TO][u, da]  = min over v in nbr+(u) of phi(u -> v) + sd(v -> a)``
    ``dis[FROM][u, da] = min over v in nbr+(u) of sd(a -> v) + phi(v -> u)``

    Requires the rows of every upward neighbor to be final (top-down
    order).  Sets the zero diagonal and both support rows.
    """
    tree = index.tree
    du = int(tree.depth[u])
    weights = index.sc._w
    for direction in (0, 1):
        dis = index.dis[direction]
        sup = index.sup[direction]
        dis[u, du] = 0.0
        sup[u, du] = 0
        if du == 0:
            continue
        upward = index.sc.upward(u)
        block = np.empty((len(upward), du), dtype=np.float64)
        for i, v in enumerate(upward):
            row = directed_sd_row(index, direction, u, v)
            w = weights[u][v] if direction == 0 else weights[v][u]
            np.add(row, w, out=block[i])
        best = block.min(axis=0)
        dis[u, :du] = best
        finite = ~np.isinf(block)
        sup[u, :du] = ((block == best) & finite).sum(axis=0)


# ----------------------------------------------------------------------
# DCH shortcut-relaxation gathers
# ----------------------------------------------------------------------
def relax_arrays(
    adj, triples: Sequence[Tuple[int, int, int]], base: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Equation (<>) terms for one popped shortcut's ``scp+``
    triples ``(x, w, y)``: returns ``(candidates, currents)`` where
    ``candidates[i] = base + phi(<x_i, w_i>)`` and
    ``currents[i] = phi(<w_i, y_i>)`` — the two weight gathers the DCH±
    pop loops otherwise perform one dict lookup at a time.

    Safe to gather up front: within one pop the partner shortcuts
    ``<w, y>`` are pairwise distinct, and in the increase direction no
    weight changes until the post-loop recompute.  The decrease
    direction additionally re-checks each hit against the live queue
    before applying it (a partner relaxed earlier in the same pop
    aliases a later triple's *leg*, which the skip rule of Algorithm 3
    would have skipped anyway).
    """
    count = len(triples)
    legs = np.fromiter(
        (adj[x][w] for x, w, _y in triples), dtype=np.float64, count=count
    )
    currents = np.fromiter(
        (adj[w][y] for _x, w, y in triples), dtype=np.float64, count=count
    )
    legs += base
    return legs, currents


# ----------------------------------------------------------------------
# Batch H2H query (Section 2, "Query")
# ----------------------------------------------------------------------
def pos_scan_many(
    tree,
    left: np.ndarray,
    right: np.ndarray,
    sources,
    targets,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """``min over i in pos(lca(s, t)) of left[s, i] + right[t, i]`` for
    every pair ``(sources[j], targets[j])``, as a float64 array.

    The H2H query of :func:`repro.h2h.query.h2h_distance` (``left`` and
    ``right`` both ``dis``) or of the directed twin (``dis_to`` and
    ``dis_from``) for a whole batch: one :meth:`lca_many`, one gather of
    the padded ``pos`` rows and a row-wise ``min``.  Padding repeats an
    entry of its own row, so it never changes a minimum; ``s == t``
    answers 0.0 without a scan, as the scalar query does.  Adds the
    scalar path's ``pos_scan`` count to *counter*.

    Raises
    ------
    QueryError
        If any vertex id is out of range (negative ones included, which
        numpy indexing would otherwise wrap).
    """
    s = np.asarray(sources, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    n = tree.n
    for ids, role in ((s, "source"), (t, "target")):
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            raise QueryError(f"{role} {int(ids[bad][0])} out of range [0, {n})")
    if not s.size:
        return np.empty(0, dtype=np.float64)
    lca = tree.lca_many(s, t)
    lengths = tree.pos_len[lca]
    distinct = s != t
    scanned = int(lengths[distinct].sum())
    if scanned:
        resolve_counter(counter).add("pos_scan", scanned)
    positions = tree.pos_pad[lca, : int(lengths.max())]
    # Flat takes off the row-major matrices: about 3x faster than the
    # equivalent 2-D fancy index ``left[s[:, None], positions]``.
    width = left.shape[1]
    total = np.ravel(left).take(s[:, None] * width + positions)
    total += np.ravel(right).take(t[:, None] * width + positions)
    return np.where(distinct, total.min(axis=1), 0.0)

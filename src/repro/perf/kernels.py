"""Vectorized Equation (*) / Equation (<>) kernels.

Every kernel here evaluates the paper's recurrences for a whole
(vertex, ancestor-slice) at once with numpy row gathers over the padded
``dis``/``sup`` matrices, replacing a scalar Python inner loop somewhere
in the maintenance layer:

===========================  ==============================================
kernel                       replaces
===========================  ==============================================
:func:`candidate_row`        per-ancestor seed scans of Algorithms 4/5
:func:`candidate_block`      per-neighbor Equation (*) terms of DTDHL's
                             row refresh
:func:`star_eval`            ``evaluate_entry`` called once per entry of
                             a whole IncH2H+ level (line 23 of Algorithm 4)
                             or of a vertex in directed H2HIndexing
:func:`level_weights` /      CHIndexing's contraction loop and its scalar
:func:`level_supports`       Equation (<>) support pass, undirected and
                             directed
:func:`fill_row`             the per-depth construction loop of
                             H2HIndexing step 3
:func:`pos_scan_many`        one ``h2h_distance`` /
                             ``directed_h2h_distance`` call per pair of
                             a query batch
===========================  ==============================================

Direction axis
--------------
:func:`candidate_row` and :func:`star_eval` read a ``(D, n, width)``
label store: ``D = 1`` for the undirected index (its ``(n, width)``
``dis`` viewed as one matrix) and ``D = 2`` for the directed one
(``dis[TO]``, ``dis[FROM]``).  Label matrix *d* of vertex *u* reads the
deep Equation (nabla) case from matrix ``other(d) = D - 1 - d``: the
undirected index reads its own matrix, ``sd(a -> v)`` for a ``TO`` entry
comes from the ``FROM`` row of ``a`` and vice versa.  The CHIndexing
level pass (:func:`level_weights`, :func:`level_supports`) follows the
same rule over a ``(D, slots)`` shortcut store: row *d* of a target
takes its first leg from row ``other(d)``.

Bit-identity contract
---------------------
All kernels are drop-in replacements for the scalar reference paths
(``H2HIndex.evaluate_entry``, ``DirectedH2HIndex.evaluate_entry``, the
scalar H2H queries), which stay in the codebase precisely so the
differential tests in ``tests/test_perf_kernels.py`` and
``tests/test_h2h_batch_query.py`` can assert the two produce
bit-identical ``dis``/``sup``/shortcut state and answers.  The level
pass's scalar twin, the dict contraction plus one Equation (<>) call
per shortcut, is ``tests/reference_ch_build.py``, held byte-equal by
``tests/test_ch_build_levels.py``.  The
identity holds exactly (not approximately) because each kernel
performs the same IEEE-754 operations as its scalar counterpart: one
``weight + sd`` addition per candidate (float addition is commutative,
so operand order is free), an exact ``min`` over the same candidate
set, and exact ``==`` tie counting — no reassociation, no fused
intermediates.

The kernels duck-type their ``index`` argument: anything exposing
``sc``/``tree``/``dis``/``sup`` (and, for :func:`star_eval`,
``slot_weights()``: ``(D, slots)`` weights in the slot order of the
tree's ``nbr+`` CSR) the way :class:`repro.h2h.index.H2HIndex` and
:class:`repro.directed.h2h.DirectedH2HIndex` do.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "candidate_row",
    "candidate_block",
    "csr_slots",
    "other",
    "star_eval",
    "fill_row",
    "directed_fill_vertex",
    "level_weights",
    "level_supports",
    "pos_scan_many",
    "query_ids",
]


# ----------------------------------------------------------------------
# Equation (*) kernels
# ----------------------------------------------------------------------
def other(count: int, d: int) -> int:
    """The label matrix, of *count*, that matrix *d* reads its deep
    Equation (nabla) case from: ``[0]`` for one, ``[1, 0]`` for two."""
    return count - 1 - d


def candidate_row(index, d: int, u: int, v: int, weight: float) -> np.ndarray:
    """The Equation (*) candidates of label row ``(d, u)`` contributed by
    one upward neighbor *v* at the given shortcut weight, over every
    proper ancestor depth ``0 .. depth(u)-1``.

    ``sd`` comes from Equation (nabla): one contiguous slice of matrix
    *d*'s row of *v* for the ancestors of *v* (the diagonal
    ``dis(v)[depth(v)] = 0`` covers ``a = v``) plus one fancy-indexed
    gather of column ``depth(v)`` of matrix ``other(d)`` along
    ``anc(u)`` for the deeper ancestors.  *weight* is the leg matrix *d*
    adds: ``phi(u, v)`` undirected, ``phi(u -> v)`` for ``TO`` and
    ``phi(v -> u)`` for ``FROM``.
    """
    tree = index.tree
    du = int(tree.depth[u])
    dv = int(tree.depth[v])
    labels = index.dis.reshape(-1, tree.n, index.dis.shape[-1])
    row = np.empty(du, dtype=np.float64)
    split = min(dv + 1, du)
    row[:split] = labels[d, v, :split]
    if split < du:
        row[split:] = labels[other(len(labels), d), tree.anc[u][split:du], dv]
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


def csr_slots(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand CSR rows: for rows ``starts[i] .. starts[i] + counts[i]``,
    return ``(row, slot)`` with one element per slot, rows in order."""
    ends = counts.cumsum()
    row = np.arange(len(counts), dtype=np.int64).repeat(counts)
    slot = np.arange(len(row), dtype=np.int64) + (starts - ends + counts)[row]
    return row, slot


def star_eval(
    index, d: int, u, depths: np.ndarray, counter: Optional[OpCounter] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate Equation (*) for the entries ``(d, u[i], depths[i])`` of
    label matrix *d* at once (*u* may be one vertex for a whole depth
    slice); returns ``(values, supports)`` without mutating.  Every
    ``depths[i]`` must be a proper ancestor depth of ``u[i]``.

    Bit-identical to calling ``index.evaluate_entry`` per entry: one flat
    gather over the tree's upward CSR builds the same ``weight + sd``
    candidates, an exact ``minimum.reduceat`` takes each entry's min, and
    the support counts the finite candidates attaining it.  The weight is
    row *d* of ``index.slot_weights()`` at the upward CSR slot itself (the
    CSR is the slot order); ``sd`` is Equation (nabla): ``dis[d](v)[da]``
    for a shallow ancestor, ``dis[other(d)](anc(u)[da])[depth(v)]`` past
    *v*.
    """
    tree = index.tree
    dis = index.dis
    n = tree.n
    width = dis.shape[-1]
    deep = other(dis.size // (n * width), d)
    depths = np.asarray(depths, dtype=np.int64)
    us = np.asarray(u, dtype=np.int64)
    if us.shape != depths.shape:
        us = np.full(depths.shape, us)
    starts = tree.up_ptr[us]
    counts = tree.up_ptr[us + 1] - starts
    row, slot = csr_slots(starts, counts)
    resolve_counter(counter).add("star_term", len(slot))
    if not len(depths):
        return np.empty(0, dtype=np.float64), np.zeros(0, dtype=np.int64)
    v = tree.up_idx[slot].astype(np.int64)
    dv = tree.depth[v]
    da = depths[row]
    anc = tree.anc_flat[tree.anc_ptr[us] + depths]
    if deep != d:  # the deep case reads matrix other(d): shift its rows
        anc = anc + (deep - d) * n
    anc = anc[row].astype(np.int64)
    sd_at = np.where(da <= dv, v * width + da, anc * width + dv)
    if d:  # flat indices count from the start of matrix d
        sd_at += d * n * width
    candidates = index.slot_weights()[d][slot] + dis.take(sd_at)
    bounds = counts.cumsum() - counts  # every entry has >= 1 term
    values = np.minimum.reduceat(candidates, bounds)
    attained = (candidates == values[row]) & ~np.isinf(candidates)
    supports = np.add.reduceat(attained.astype(np.int64), bounds)
    return values, supports


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


def directed_fill_vertex(index, u: int) -> None:
    """Compute both directed distance rows of *u* from Equation (*) —
    the construction inner loop of directed H2HIndexing, one
    :func:`star_eval` per direction.

    ``dis[TO][u, da]  = min over v in nbr+(u) of phi(u -> v) + sd(v -> a)``
    ``dis[FROM][u, da] = min over v in nbr+(u) of sd(a -> v) + phi(v -> u)``

    Requires the rows of every upward neighbor to be final (top-down
    order).  Sets the zero diagonal and both support rows.
    """
    du = int(index.tree.depth[u])
    index.drop_log()
    for d in (0, 1):
        index.dis[d][u, du] = 0.0
        index.sup[d][u, du] = 0
        if du:
            values, supports = star_eval(index, d, u, np.arange(du))
            index.dis[d][u, :du] = values
            index.sup[d][u, :du] = supports


# ----------------------------------------------------------------------
# Equation (<>) level pass (CHIndexing)
# ----------------------------------------------------------------------
def level_weights(st, phi_g: np.ndarray) -> Tuple[np.ndarray, int]:
    """Equation (<>) weights of every slot, and the number of terms.

    *phi_g* is ``phi(e, G)`` as a ``(D, slots)`` array (``inf`` off
    ``G``): ``D = 1`` undirected, ``D = 2`` directed (rows ``TO`` and
    ``FROM``).  Row *d* of target ``<v, w>`` takes the term
    ``phi[other(d)][<u, v>] + phi[d][<u, w>]`` of each triangle
    ``(u; v, w)`` of :meth:`~repro.ch.shortcut_graph.ShortcutStructure.triangles`
    — one ``np.minimum.at`` per row and elimination-tree height, whose
    legs are final by then.  This is Algorithm 1's contraction, one
    independent set of vertices at a time.
    """
    phi = phi_g.copy()
    rows = len(phi)
    terms = 0
    for a, b, t in st.triangles():
        for d in range(rows):
            np.minimum.at(phi[d], t, phi[other(rows, d)][a] + phi[d][b])
        terms += len(t)
    return phi, terms


def level_supports(
    st, rank, phi_g: np.ndarray, phi: np.ndarray, witnesses: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``sup`` of every slot of :func:`level_weights`' output *phi*, and
    (*witnesses*) ``via``.

    The tie rule of the scalar Equation (<>): a finite ``phi(e, G)``
    equal to ``phi`` counts one, and so does every finite term equal to
    it.  ``via`` is the lowest-ranked apex ``u`` of a tying term, or
    ``-1`` where ``phi(e, G)`` attains the minimum (an ``inf`` shortcut
    included).
    """
    rows, slots = phi.shape
    sup = ((phi_g == phi) & (phi_g != np.inf)).astype(np.int64)
    n = len(rank)
    rank_arr = np.asarray(rank, dtype=np.int64)
    apex_rank = rank_arr[st.low]
    # Lowest tying apex rank per slot; n where no term ties.
    best = np.full((rows, slots), n, dtype=np.int64) if witnesses else None
    for a, b, t in st.triangles():
        for d in range(rows):
            terms = phi[other(rows, d)][a] + phi[d][b]
            tie = (terms == phi[d][t]) & (terms != np.inf)
            tied = t[tie]
            np.add.at(sup[d], tied, 1)
            if witnesses:
                np.minimum.at(best[d], tied, apex_rank[a[tie]])
    if not witnesses:
        return sup, None
    order = np.argsort(rank_arr)
    via = np.where(best < n, order[np.minimum(best, n - 1)], -1)
    via[phi_g == phi] = -1
    return sup, via


# ----------------------------------------------------------------------
# Batch H2H query (Section 2, "Query")
# ----------------------------------------------------------------------
def query_ids(n: int, sources, targets) -> Tuple[np.ndarray, np.ndarray]:
    """A batch's source and target ids as int64 arrays.

    Raises
    ------
    QueryError
        If any id lies outside ``[0, n)`` (negative ones included,
        which numpy indexing would otherwise wrap).
    """
    s = np.asarray(sources, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    for ids, role in ((s, "source"), (t, "target")):
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            raise QueryError(f"{role} {int(ids[bad][0])} out of range [0, {n})")
    return s, t


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
    s, t = query_ids(tree.n, sources, targets)
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

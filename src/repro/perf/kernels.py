"""Vectorized Equation (*) / Equation (<>) kernels.

Every kernel here evaluates the paper's recurrences for a whole
(vertex, ancestor-slice) at once with numpy row gathers over the padded
``dis``/``sup`` matrices, replacing a scalar Python inner loop somewhere
in the maintenance layer:

===========================  ==============================================
kernel                       replaces
===========================  ==============================================
:func:`candidate_rows`       per-ancestor seed scans of Algorithms 4/5
:func:`candidate_block`      per-neighbor Equation (*) terms of DTDHL's
                             row refresh
:func:`star_eval`            ``evaluate_entry`` called once per entry of
                             a whole IncH2H+ level (line 23 of Algorithm 4)
:func:`level_weights` /      CHIndexing's contraction loop and its scalar
:func:`level_supports`       Equation (<>) support pass, undirected and
                             directed
:func:`fill_row`             the per-depth construction loop of
                             H2HIndexing step 3, undirected or directed
:func:`pos_scan_many`        one ``h2h_distance`` call per pair of a
                             query batch, undirected or directed
===========================  ==============================================

Direction axis
--------------
:func:`candidate_rows` and :func:`star_eval` read a ``(D, n, width)``
label store: ``D = 1`` for the undirected index (its ``(n, width)``
``dis`` viewed as one matrix) and ``D = 2`` for the directed one
(``dis[TO]``, ``dis[FROM]``).  Label matrix *d* of vertex *u* reads the
deep Equation (nabla) case from matrix ``other(d) = D - 1 - d``: the
undirected index reads its own matrix, ``sd(a -> v)`` for a ``TO`` entry
comes from the ``FROM`` row of ``a`` and vice versa.  The CHIndexing
level pass (:func:`level_weights`, :func:`level_supports`) follows the
same rule over a ``(D, slots)`` shortcut store: row *d* of a target
takes its first leg from row ``other(d)``.  :func:`fill_row` fills
every label matrix of a vertex the same way, matrix *d* from row *d* of
the store's weights: one construction kernel serves both indexes.

Bit-identity contract
---------------------
All kernels are drop-in replacements for the scalar reference paths
(``H2HIndex.evaluate_entry`` of either direction, the
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
tree's ``nbr+`` CSR) the way :class:`repro.h2h.index.H2HIndex` does,
with one label matrix or two.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "candidate_row",
    "candidate_rows",
    "candidate_block",
    "csr_slots",
    "other",
    "star_eval",
    "fill_row",
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
    proper ancestor depth ``0 .. depth(u)-1``: :func:`candidate_rows` of
    one row.  *weight* is the leg matrix *d* adds: ``phi(u, v)``
    undirected, ``phi(u -> v)`` for ``TO`` and ``phi(v -> u)`` for
    ``FROM``.
    """
    return candidate_rows(index, [d], [u], [v], [weight])[2]


def candidate_rows(
    index, d, u, v, weight
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`candidate_row` of rows ``(d[i], u[i])`` through upward
    neighbors ``v[i]`` at weights ``weight[i]``, in one flat gather.

    Returns ``(row, da, values)`` per candidate, row by row, each row
    over ``da = 0 .. depth(u[i])-1``.  ``sd`` comes from Equation
    (nabla): matrix *d*'s row of ``v`` for the ancestors of ``v`` (the
    diagonal ``dis(v)[depth(v)] = 0`` covers ``a = v``), column
    ``depth(v)`` of matrix ``other(d)`` along ``anc(u)`` past it.
    """
    tree = index.tree
    n = tree.n
    width = index.dis.shape[-1]
    count = index.dis.size // (n * width)
    d = np.asarray(d, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    du = tree.depth[u]
    bounds = du.cumsum() - du
    row = np.arange(len(u)).repeat(du)
    da = np.arange(len(row)) - bounds[row]
    dv = tree.depth[v][row]
    shallow = ((d * n + v) * width)[row] + da
    deeper = ((count - 1 - d) * n)[row] + tree.anc_flat[tree.anc_ptr[u][row] + da]
    at = np.where(da <= dv, shallow, deeper * width + dv)
    values = index.dis.take(at) + np.asarray(weight, dtype=np.float64)[row]
    return row, da, values


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
    index,
    d: int,
    u,
    depths: np.ndarray,
    counter: Optional[OpCounter] = None,
    anc: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate Equation (*) for the entries ``(d, u[i], depths[i])`` of
    label matrix *d* at once (*u* may be one vertex for a whole depth
    slice); returns ``(values, supports)`` without mutating.  Every
    ``depths[i]`` must be a proper ancestor depth of ``u[i]``.  *anc*,
    when the caller has it, is each entry's ancestor
    ``anc(u[i])[depths[i]]``, which is then not gathered again.

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
    counts = tree.up_len[us]
    ends = counts.cumsum()
    bounds = ends - counts  # every entry has >= 1 term
    row = np.arange(len(us)).repeat(counts)
    slot = (tree.up_ptr[us] - bounds)[row]
    slot += np.arange(len(slot))
    resolve_counter(counter).add("star_term", len(slot))
    if not len(depths):
        return np.empty(0, dtype=np.float64), np.zeros(0, dtype=np.int64)
    if anc is None:
        anc = tree.anc_flat[tree.anc_ptr[us] + depths]
    dv = tree.up_depth[slot]
    da = depths[row]
    # Flat indices: matrix d for the shallow case, other(d) for the deep.
    shallow = tree.up_base[slot] + da
    deeper = (anc * np.int64(width))[row] + dv
    if d:
        shallow += d * n * width
    if deep:
        deeper += deep * n * width
    sd_at = np.where(da <= dv, shallow, deeper)
    candidates = index.slot_weights()[d][slot] + dis.take(sd_at)
    values = np.minimum.reduceat(candidates, bounds)
    supports = np.add.reduceat(candidates == values[row], bounds, dtype=np.int64)
    supports[values == np.inf] = 0  # an infinite term supports nothing
    return values, supports


def fill_row(sc, tree, dis: np.ndarray, sup: np.ndarray, u: int) -> None:
    """Compute ``dis(u)`` / ``sup(u)`` from Equation (*), vectorized, in
    every label matrix: *dis*/*sup* are ``(n, width)`` for the one row
    of an undirected CH store and ``(2, n, width)`` for a directed one.

    Matrix *d* adds row *d* of ``sc.slot_weights`` (``phi(u -> v)`` for
    ``TO``, ``phi(v -> u)`` for ``FROM``) and reads the deep Equation
    (nabla) case from matrix :func:`other`, so the directed rows are::

        dis[TO][u, da]   = min over v in nbr+(u) of phi(u -> v) + sd(v -> a)
        dis[FROM][u, da] = min over v in nbr+(u) of sd(a -> v) + phi(v -> u)

    Requires the rows of every vertex in ``nbr+(u)`` (all ancestors of
    *u*) to be final already; any top-down processing order satisfies
    this.  Shared by full construction and subtree rebuilds.
    """
    depth = tree.depth
    du = int(depth[u])
    count = len(sc.slot_weights)
    upward = sc.upward(u)
    anc_u = tree.anc[u]
    for d in range(count):
        if count == 1:
            dis_d, sup_d, deep = dis, sup, dis
        else:
            dis_d, sup_d, deep = dis[d], sup[d], dis[other(count, d)]
        if du == 0:
            dis_d[u, 0] = 0.0
            continue
        weights = sc.upward_weights(u, d)
        candidates = np.empty((len(upward), du), dtype=np.float64)
        for i, v in enumerate(upward):
            dv = int(depth[v])
            w_uv = weights[i]
            row = candidates[i]
            # Depths 0..dv: a is an ancestor of v (or v itself) -> dis(v)[da].
            row[: dv + 1] = dis_d[v, : dv + 1]
            # Depths dv+1..du-1: v is a proper ancestor of a -> dis(a)[dv].
            if dv + 1 < du:
                row[dv + 1 :] = deep[anc_u[dv + 1 : du], dv]
            row += w_uv
        best = candidates.min(axis=0)
        dis_d[u, :du] = best
        dis_d[u, du] = 0.0
        finite = ~np.isinf(best)
        sup_d[u, :du] = ((candidates == best) & finite).sum(axis=0)
        sup_d[u, du] = 0


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
    ``right`` both ``dis``, or ``dis_to`` and ``dis_from`` on a directed
    index) for a whole batch: one :meth:`lca_many`, one gather of
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

"""H2H distance queries (Section 2, "Query").

For a query ``(s, t)`` with lowest common ancestor ``a``::

    sd(s, t) = min over i in pos(a) of  dis(s)[i] + dis(t)[i]

Property (1) of the tree decomposition guarantees every shortest
``s``-``t`` path crosses ``X(a) = {a} ∪ nbr+(a)``, and property (2)
guarantees every member of ``X(a)`` appears in both distance arrays, so
the scan is both correct and only ``|X(a)|`` long — no graph search at
all, which is why H2H answers queries one to three orders of magnitude
faster than CH (Exp-3).

The directed index (the ``D = 2`` case of
:class:`~repro.h2h.index.H2HIndex`, built by
:func:`repro.directed.h2h.directed_h2h_indexing`) is read by the same
scan, over ``dis_to(s)`` and ``dis_from(t)``::

    sd(s -> t) = min over i in pos(a) of  dis_to(s)[i] + dis_from(t)[i]
"""

from __future__ import annotations

from typing import Optional

from repro.errors import QueryError
from repro.h2h.index import H2HIndex
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["h2h_distance"]


def h2h_distance(
    index: H2HIndex,
    s: int,
    t: int,
    counter: Optional[OpCounter] = None,
) -> float:
    """The shortest distance ``sd(s, t)`` read from the H2H index, or
    ``sd(s -> t)`` from a directed one, whose ``(2, n, width)`` labels
    give ``s``'s row from ``dis[TO]`` and ``t``'s from ``dis[FROM]``.

    Raises
    ------
    QueryError
        If either vertex id is out of range.
    """
    n = index.n
    if not 0 <= s < n:
        raise QueryError(f"source {s} out of range [0, {n})")
    if not 0 <= t < n:
        raise QueryError(f"target {t} out of range [0, {n})")
    if s == t:
        return 0.0
    ops = resolve_counter(counter)
    a = index.tree.lca(s, t)
    positions = index.tree.pos[a]
    ops.add("pos_scan", len(positions))
    dis = index.dis
    dis_s, dis_t = (dis, dis) if dis.ndim == 2 else dis
    return float((dis_s[s].take(positions) + dis_t[t].take(positions)).min())

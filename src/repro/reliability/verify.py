"""Integrity verification: cross-check an index against its graph.

A long-lived oracle absorbs thousands of update batches between
rebuilds; a single bit of silent corruption (bad RAM, a buggy
maintenance step, a tampered archive) then poisons every answer until
someone notices.  This module makes "noticing" cheap and explicit:

* :func:`verify_ch` re-derives Equation (<>) for shortcuts and checks
  stored weight / support / witness against it, plus symmetry (on an
  undirected index) and — when the road network is supplied —
  agreement between the index's ``phi(e, G)`` copy and the graph's
  actual edge weights (its arcs, on a directed network);
* :func:`verify_h2h` does the same for the underlying CH and then
  re-derives Equation (*) for super-shortcut entries of every label
  matrix;
* :func:`verify_index` dispatches on the index (or oracle) type.

All three run **exhaustively** by default and **sampled** when given
``sample=k`` — the production mode, where a seeded random subset bounds
the cost of a background integrity sweep.  Failures raise
:class:`repro.errors.IntegrityError` naming the first bad entry.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.ch.shortcut_graph import ShortcutGraph
from repro.errors import IntegrityError
from repro.graph.graph import RoadNetwork
from repro.h2h.index import H2HIndex

__all__ = ["verify_ch", "verify_h2h", "verify_index"]


def _check_shortcut(index: ShortcutGraph, u: int, v: int) -> None:
    """One shortcut (the arc ``u -> v`` of a directed index): symmetry
    (undirected only), Equation (<>), support, witness."""
    w = index.weight(u, v)
    if len(index.slot_weights) == 1 and index.weight(v, u) != w:
        raise IntegrityError(f"asymmetric weight on shortcut <{u}, {v}>")
    result = index.evaluate_equation(u, v)
    if result.weight != w:
        raise IntegrityError(
            f"shortcut <{u}, {v}>: stored weight {w}, "
            f"Equation (<>) gives {result.weight}"
        )
    if index.support(u, v) != result.support:
        raise IntegrityError(
            f"shortcut <{u}, {v}>: stored support {index.support(u, v)}, "
            f"actual {result.support}"
        )
    via = index.via(u, v)
    if via is None:
        if not math.isinf(w) and index.edge_weight(u, v) != w:
            raise IntegrityError(
                f"shortcut <{u}, {v}>: witness says original edge, but "
                f"phi(e, G) = {index.edge_weight(u, v)} != {w}"
            )
    else:
        if (
            not index.has_shortcut(u, via)
            or not index.has_shortcut(via, v)
            or index.weight(u, via) + index.weight(via, v) != w
        ):
            raise IntegrityError(
                f"shortcut <{u}, {v}>: witness {via} does not attain the "
                f"stored weight {w}"
            )


def _check_against_graph(index: ShortcutGraph, graph: RoadNetwork) -> None:
    """The index's edge-weight copy must mirror the graph exactly: its
    edges, or its arcs on a directed index."""
    if index.n != graph.n:
        raise IntegrityError(
            f"index has {index.n} vertices, graph has {graph.n}"
        )
    directed = len(index.slot_weights) == 2
    edges = list(graph.arcs() if directed else graph.edges())
    # A closed road stays in the graph at inf; a deleted one leaves it.
    # Either way the index keeps the edge at inf: count live edges only.
    index_live = sum(map(math.isfinite, index.edge_weights().values()))
    graph_live = sum(math.isfinite(w) for _, _, w in edges)
    if index_live != graph_live:
        raise IntegrityError(
            f"index tracks {index_live} live edges, graph has {graph_live}"
        )
    for u, v, w in edges:
        if not index.is_graph_edge(u, v):
            raise IntegrityError(
                f"graph edge ({u}, {v}) is unknown to the index"
            )
        if index.edge_weight(u, v) != w:
            raise IntegrityError(
                f"edge ({u}, {v}): graph weight {w}, index copy "
                f"{index.edge_weight(u, v)} — graph and index have diverged"
            )


def verify_ch(
    index: ShortcutGraph,
    graph: Optional[RoadNetwork] = None,
    *,
    sample: Optional[int] = None,
    seed: int = 0,
) -> int:
    """Verify a CH index; returns the number of shortcuts checked.

    With ``sample=k``, only a seeded random subset of ``k`` shortcuts is
    re-derived (the graph cross-check, which is cheap, always runs in
    full).  Raises :class:`IntegrityError` on the first inconsistency.
    """
    if graph is not None:
        _check_against_graph(index, graph)
    shortcuts = list(index.shortcuts())
    if sample is not None and sample < len(shortcuts):
        shortcuts = random.Random(seed).sample(shortcuts, sample)
    for u, v in shortcuts:
        _check_shortcut(index, u, v)
    return len(shortcuts)


def verify_h2h(
    index: H2HIndex,
    graph: Optional[RoadNetwork] = None,
    *,
    sample: Optional[int] = None,
    seed: int = 0,
) -> int:
    """Verify an H2H index (underlying CH first, then the ``dis`` /
    ``sup`` matrices, both of them on a directed index); returns the
    number of entries checked.

    With ``sample=k``, ``k`` shortcuts and ``k`` super-shortcut entries
    are re-derived; exhaustive otherwise.
    """
    checked = verify_ch(index.sc, graph, sample=sample, seed=seed)
    depth = index.tree.depth
    count = len(index.sc.slot_weights)
    dis = index.dis.reshape(count, index.n, -1)
    sup = index.sup.reshape(count, index.n, -1)
    entries = [
        (d, u, da)
        for d in range(count)
        for u in range(index.n)
        for da in range(int(depth[u]))
    ]
    if sample is not None and sample < len(entries):
        entries = random.Random(seed + 1).sample(entries, sample)
    for d in range(count):
        name = "dis" if count == 1 else f"dis[{d}]"
        for u in range(index.n):
            if dis[d, u, int(depth[u])] != 0.0:
                raise IntegrityError(
                    f"{name}({u})[depth({u})] = {dis[d, u, int(depth[u])]}, "
                    f"must be 0"
                )
    for d, u, da in entries:
        value, support = index.evaluate_entry(u, da, None, d)
        where = f", matrix {d}" if count == 2 else ""
        if dis[d, u, da] != value:
            raise IntegrityError(
                f"super-shortcut ({u}, depth {da}{where}): stored distance "
                f"{dis[d, u, da]}, Equation (*) gives {value}"
            )
        if sup[d, u, da] != support:
            raise IntegrityError(
                f"super-shortcut ({u}, depth {da}{where}): stored support "
                f"{sup[d, u, da]}, actual {support}"
            )
    return checked + len(entries)


def verify_index(
    index,
    graph: Optional[RoadNetwork] = None,
    *,
    sample: Optional[int] = None,
    seed: int = 0,
) -> int:
    """Verify any index — or any oracle exposing one via ``.index``.

    Dispatches to :func:`verify_ch` / :func:`verify_h2h`; returns the
    number of entries checked, raises :class:`IntegrityError` on the
    first inconsistency.
    """
    if not isinstance(index, (ShortcutGraph, H2HIndex)):
        inner = getattr(index, "index", None)
        if inner is None:
            raise IntegrityError(
                f"cannot verify object of type {type(index).__name__}"
            )
        if graph is None:
            graph = getattr(index, "graph", None)
        index = inner
    if isinstance(index, H2HIndex):
        return verify_h2h(index, graph, sample=sample, seed=seed)
    return verify_ch(index, graph, sample=sample, seed=seed)

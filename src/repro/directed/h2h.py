"""Directed H2H: hierarchical 2-hop labels for digraphs.

The tree decomposition is a property of the *skeleton* (the symmetrized
shortcut structure), so it carries over unchanged; what doubles is the
label: every vertex stores, per ancestor ``a``,

* ``dis_to(u)[depth(a)]  = sd(u -> a)``  and
* ``dis_from(u)[depth(a)] = sd(a -> u)``,

each satisfying a directed Equation (*) over the directed shortcut
weights::

    sd(u -> a) = min over v in nbr+(u) of  phi(u -> v) + sd(v -> a)
    sd(a -> u) = min over v in nbr+(u) of  sd(a -> v) + phi(v -> u)

with the inner ``sd`` values read from whichever of the two vertices is
deeper, via the directed Equation (nabla)::

    sd(v -> a) = dis_to(v)[depth(a)]    if depth(v) > depth(a)
                 dis_from(a)[depth(v)]  if depth(v) < depth(a)

A query is one position-array scan, as in the undirected case::

    sd(s -> t) = min over i in pos(lca) of dis_to(s)[i] + dis_from(t)[i]

The incremental algorithms mirror Algorithms 4-5 per direction.  The
dependents of a changed ``TO`` entry ``sd(u -> a)`` are the ``TO``
entries of ``nbr-(u)`` at the same ancestor depth and the ``FROM``
entries ``sd(u -> x)``-side of ``nbr-(a) ∩ des(u)``; symmetrically for
a changed ``FROM`` entry — the same two-loop structure as the
undirected IncH2H, with directions threaded through.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.directed.ch import DirectedShortcutGraph, directed_ch_indexing
from repro.directed.dch import (
    ArcUpdate,
    directed_dch_decrease,
    directed_dch_increase,
    trace_directed_call,
)
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_, QueryError
from repro.h2h.tree import TreeDecomposition
from repro.obs import names
from repro.obs.trace import span
from repro.order.ordering import Ordering
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

__all__ = [
    "DirectedH2HIndex",
    "directed_h2h_indexing",
    "directed_h2h_distance",
    "directed_inch2h_increase",
    "directed_inch2h_decrease",
]

#: Direction tags for super-shortcut entries.
TO, FROM = 0, 1


class DirectedH2HIndex:
    """The directed H2H index: tree + two distance/support matrix pairs."""

    def __init__(
        self,
        sc: DirectedShortcutGraph,
        tree: TreeDecomposition,
        dis: Tuple[np.ndarray, np.ndarray],
        sup: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.sc = sc
        self.tree = tree
        self.dis = dis  # (dis_to, dis_from)
        self.sup = sup

    def clone(self) -> "DirectedH2HIndex":
        """An independent copy sharing the weight-independent tree."""
        return DirectedH2HIndex(
            self.sc.clone(),
            self.tree,
            (self.dis[TO].copy(), self.dis[FROM].copy()),
            (self.sup[TO].copy(), self.sup[FROM].copy()),
        )

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.tree.n

    def num_super_shortcuts(self) -> int:
        """Directed super-shortcuts: two per (vertex, ancestor) pair."""
        return 2 * self.tree.num_super_shortcuts()

    # ------------------------------------------------------------------
    def _sd(self, direction: int, u: int, v: int, da: int) -> float:
        """Directed Equation (nabla): ``sd(v -> a)`` for TO, ``sd(a -> v)``
        for FROM, where *v* and ``a = anc(u)[da]`` are ancestors of *u*."""
        dv = int(self.tree.depth[v])
        if dv > da:
            return float(self.dis[direction][v, da])
        if dv < da:
            a = int(self.tree.anc[u][da])
            return float(self.dis[1 - direction][a, dv])
        return 0.0

    def evaluate_entry(
        self, direction: int, u: int, da: int,
        counter: Optional[OpCounter] = None,
    ) -> Tuple[float, int]:
        """Directed Equation (*): ``(value, support)`` of one entry."""
        ops = resolve_counter(counter)
        weights = self.sc._w
        best = math.inf
        count = 0
        terms = 0
        for v in self.sc.upward(u):
            terms += 1
            if direction == TO:
                candidate = weights[u][v] + self._sd(TO, u, v, da)
            else:
                candidate = self._sd(FROM, u, v, da) + weights[v][u]
            if candidate < best:
                best = candidate
                count = 1
            elif candidate == best and not math.isinf(candidate):
                count += 1
        ops.add("star_term", terms)
        return best, count

    def recompute_entry(
        self, direction: int, u: int, da: int,
        counter: Optional[OpCounter] = None,
    ) -> float:
        """Recompute and store one entry from the directed Equation (*)."""
        value, support = self.evaluate_entry(direction, u, da, counter)
        self.dis[direction][u, da] = value
        self.sup[direction][u, da] = support
        return value

    def distance_many(
        self, sources, targets, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """``sd(s -> t)`` for every pair ``(sources[i], targets[i])``:
        the batch form of :func:`directed_h2h_distance`, bit-identical
        to it pair by pair (raises ``QueryError`` on an out-of-range id)."""
        return kernels.pos_scan_many(
            self.tree, self.dis[TO], self.dis[FROM], sources, targets, counter
        )

    def validate(self) -> None:
        """Check every entry of both directions against Equation (*)."""
        depth = self.tree.depth
        for u in range(self.n):
            du = int(depth[u])
            for direction in (TO, FROM):
                if self.dis[direction][u, du] != 0.0:
                    raise IndexError_(f"dis[{direction}]({u})[{du}] must be 0")
                for da in range(du):
                    value, support = self.evaluate_entry(direction, u, da)
                    if self.dis[direction][u, da] != value:
                        raise IndexError_(
                            f"dis[{direction}]({u})[{da}] = "
                            f"{self.dis[direction][u, da]}, actual {value}"
                        )
                    if self.sup[direction][u, da] != support:
                        raise IndexError_(
                            f"sup[{direction}]({u})[{da}] = "
                            f"{self.sup[direction][u, da]}, actual {support}"
                        )

    def __repr__(self) -> str:
        return (
            f"DirectedH2HIndex(n={self.n}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )


def directed_h2h_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> DirectedH2HIndex:
    """Build the directed H2H index (top-down directed Equation (*),
    vectorized per vertex by :func:`repro.perf.kernels.directed_fill_vertex`)."""
    sc = directed_ch_indexing(graph, ordering, counter)
    tree = TreeDecomposition(sc)  # duck-typed: needs ordering/upward/downward
    n = tree.n
    height = tree.height
    depth = tree.depth
    dis_to = np.full((n, height), np.inf, dtype=np.float64)
    dis_from = np.full((n, height), np.inf, dtype=np.float64)
    sup_to = np.zeros((n, height), dtype=np.int32)
    sup_from = np.zeros((n, height), dtype=np.int32)
    index = DirectedH2HIndex(sc, tree, (dis_to, dis_from), (sup_to, sup_from))

    ops = resolve_counter(counter)
    for u in tree.top_down_order:
        kernels.directed_fill_vertex(index, u)
        ops.add("star_term", 2 * len(sc.upward(u)) * int(depth[u]))
    return index


def directed_h2h_distance(
    index: DirectedH2HIndex,
    s: int,
    t: int,
    counter: Optional[OpCounter] = None,
) -> float:
    """``sd(s -> t)`` read from the directed labels (one pos scan)."""
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
    dis_to, dis_from = index.dis
    return float(
        (dis_to[s].take(positions) + dis_from[t].take(positions)).min()
    )


# ----------------------------------------------------------------------
# Incremental maintenance
# ----------------------------------------------------------------------

#: A queue entry: (direction, descendant vertex, ancestor depth).
Entry = Tuple[int, int, int]


def _seed_candidates(index, arc, weight):
    """Yield ``(direction, lower_endpoint)`` affected by a changed arc.

    An arc ``l -> h`` (skeleton lower endpoint ``l``) feeds the TO
    entries of ``l``; an arc ``h -> l`` feeds the FROM entries of ``l``.
    """
    u, v = arc
    low = index.sc.lower_endpoint(u, v)
    if u == low:
        yield TO, low, v  # candidates phi(l -> h) + sd(h -> a)
    else:
        yield FROM, low, u  # candidates sd(a -> h) + phi(h -> l)


def directed_inch2h_increase(
    index: DirectedH2HIndex,
    updates: Sequence[ArcUpdate],
    counter: Optional[OpCounter] = None,
) -> List[Tuple[Entry, float, float]]:
    """Directed IncH2H+ : weight increases through both label matrices."""
    with span(names.SPAN_DIRECTED_INCH2H_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops_before = resolve_counter(counter).as_dict() if sp.active else None
        changed = _directed_inch2h_increase_impl(index, updates, counter)
        if sp.active:
            trace_directed_call(
                sp, len(updates), len(changed), resolve_counter(counter), ops_before
            )
    return changed


def _directed_inch2h_increase_impl(
    index: DirectedH2HIndex,
    updates: Sequence[ArcUpdate],
    counter: Optional[OpCounter],
) -> List[Tuple[Entry, float, float]]:
    ops = resolve_counter(counter)
    changed_arcs = directed_dch_increase(index.sc, updates, counter)

    sc = index.sc
    tree = index.tree
    rank = sc.ordering.rank
    depth = tree.depth
    weights = sc._w
    queue: AddressableHeap[Entry] = AddressableHeap()

    # Seeds: per changed arc, test every entry of the lower endpoint —
    # the whole ancestor slice at once with the directed Equation (*)
    # kernel (same weight + sd additions, bit-identical hit test).
    for arc, old_w, _new_w in changed_arcs:
        if math.isinf(old_w):
            continue
        for direction, u, via in _seed_candidates(index, arc, old_w):
            du = int(depth[u])
            ops.add("anc_scan", du)
            if du == 0:
                continue
            dis_dir = index.dis[direction]
            sup_dir = index.sup[direction]
            tmp = kernels.directed_candidate_row(index, direction, u, via, old_w)
            hits = np.nonzero((tmp == dis_dir[u, :du]) & ~np.isinf(tmp))[0]
            for da in hits:
                da = int(da)
                sup_dir[u, da] -= 1
                if sup_dir[u, da] == 0:
                    queue.push((direction, u, da), (-rank[u], direction, da))
                    ops.add("queue_push")

    changed: List[Tuple[Entry, float, float]] = []
    while queue:
        (direction, u, da), _ = queue.pop()
        ops.add("queue_pop")
        a = int(tree.anc[u][da])
        du = int(depth[u])
        dis_dir = index.dis[direction]
        old_val = float(dis_dir[u, da])
        if not math.isinf(old_val):
            sup_dir = index.sup[direction]
            # Loop 1: same-direction entries of downward neighbors.
            # (Infinite legs — one-way streets — support nothing.)
            for x in sc.downward(u):
                ops.add("dependent_inspect")
                leg = weights[x][u] if direction == TO else weights[u][x]
                if not math.isinf(leg) and leg + old_val == dis_dir[x, da]:
                    sup_dir[x, da] -= 1
                    if sup_dir[x, da] == 0:
                        queue.push((direction, x, da), (-rank[x], direction, da))
                        ops.add("queue_push")
            # Loop 2: opposite-position entries of nbr-(a) ∩ des(u):
            # a changed sd(u -> a) feeds sd(x -> ...) via phi(x -> a)?
            # No — it feeds the *same* direction read through the deeper
            # side: entries (x, depth(u)) of direction `direction` whose
            # candidate via a reads dis[1 - direction]... the candidate
            # via neighbor a of entry (x, du, direction) is
            #   TO:   phi(x -> a) + sd(a -> u) = phi(x -> a) + dis_FROM[u, da]
            #   FROM: sd(u -> a)... = dis_TO[u, da] + phi(a -> x)
            # so a changed (u, da, TO) feeds FROM entries and vice versa.
            other = 1 - direction
            dis_other = index.dis[other]
            sup_other = index.sup[other]
            for x in tree.down_in_descendants(a, u):
                ops.add("dependent_inspect")
                leg = weights[a][x] if direction == TO else weights[x][a]
                if not math.isinf(leg) and leg + old_val == dis_other[x, du]:
                    sup_other[x, du] -= 1
                    if sup_other[x, du] == 0:
                        queue.push((other, x, du), (-rank[x], other, du))
                        ops.add("queue_push")
        new_val = index.recompute_entry(direction, u, da, ops)
        if new_val != old_val:
            changed.append(((direction, u, da), old_val, new_val))
    return changed


def directed_inch2h_decrease(
    index: DirectedH2HIndex,
    updates: Sequence[ArcUpdate],
    counter: Optional[OpCounter] = None,
) -> List[Tuple[Entry, float, float]]:
    """Directed IncH2H- : weight decreases with on-the-fly supports."""
    with span(names.SPAN_DIRECTED_INCH2H_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops_before = resolve_counter(counter).as_dict() if sp.active else None
        changed = _directed_inch2h_decrease_impl(index, updates, counter)
        if sp.active:
            trace_directed_call(
                sp, len(updates), len(changed), resolve_counter(counter), ops_before
            )
    return changed


def _directed_inch2h_decrease_impl(
    index: DirectedH2HIndex,
    updates: Sequence[ArcUpdate],
    counter: Optional[OpCounter],
) -> List[Tuple[Entry, float, float]]:
    ops = resolve_counter(counter)
    changed_arcs = directed_dch_decrease(index.sc, updates, counter)

    sc = index.sc
    tree = index.tree
    rank = sc.ordering.rank
    depth = tree.depth
    weights = sc._w
    queue: AddressableHeap[Entry] = AddressableHeap()
    original: dict = {}
    # Seed memo: (direction, u, via) -> candidate array (du long), to
    # dedupe against later pop-loop evaluations at identical values.
    seed_rows: Dict[Tuple[int, int, int], np.ndarray] = {}

    for arc, _old_w, new_w in changed_arcs:
        for direction, u, via in _seed_candidates(index, arc, new_w):
            du = int(depth[u])
            if du == 0:
                continue
            ops.add("anc_scan", du)
            dis_dir = index.dis[direction]
            sup_dir = index.sup[direction]
            # Whole ancestor slice at once (directed Equation (*) kernel);
            # ties and improvements target distinct depths, so applying
            # them from one pre-write gather matches the per-depth order.
            row = kernels.directed_candidate_row(index, direction, u, via, new_w)
            seed_rows[(direction, u, via)] = row
            current_row = dis_dir[u, :du]
            better = np.nonzero(row < current_row)[0]
            ties = np.nonzero((row == current_row) & ~np.isinf(row))[0]
            if len(ties):
                sup_dir[u, ties] += 1
            for da in better:
                da = int(da)
                original.setdefault((direction, u, da), float(dis_dir[u, da]))
                dis_dir[u, da] = row[da]
                sup_dir[u, da] = 1
                if (direction, u, da) not in queue:
                    queue.push((direction, u, da),
                               (-rank[u], direction, da))
                    ops.add("queue_push")

    while queue:
        (direction, u, da), _ = queue.pop()
        ops.add("queue_pop")
        a = int(tree.anc[u][da])
        du = int(depth[u])
        dis_dir = index.dis[direction]
        val = float(dis_dir[u, da])
        if math.isinf(val):
            continue
        sup_dir = index.sup[direction]
        for x in sc.downward(u):
            ops.add("dependent_inspect")
            leg = weights[x][u] if direction == TO else weights[u][x]
            candidate = leg + val
            seed_row = seed_rows.get((direction, x, u))
            if seed_row is not None and seed_row[da] == candidate:
                continue
            current = dis_dir[x, da]
            if candidate < current:
                original.setdefault((direction, x, da), float(current))
                dis_dir[x, da] = candidate
                sup_dir[x, da] = 1
                if (direction, x, da) not in queue:
                    queue.push((direction, x, da), (-rank[x], direction, da))
                    ops.add("queue_push")
            elif candidate == current and not math.isinf(candidate):
                sup_dir[x, da] += 1
        other = 1 - direction
        dis_other = index.dis[other]
        sup_other = index.sup[other]
        for x in tree.down_in_descendants(a, u):
            ops.add("dependent_inspect")
            leg = weights[a][x] if direction == TO else weights[x][a]
            candidate = leg + val
            seed_row = seed_rows.get((other, x, a))
            if seed_row is not None and seed_row[du] == candidate:
                continue
            current = dis_other[x, du]
            if candidate < current:
                original.setdefault((other, x, du), float(current))
                dis_other[x, du] = candidate
                sup_other[x, du] = 1
                if (other, x, du) not in queue:
                    queue.push((other, x, du), (-rank[x], other, du))
                    ops.add("queue_push")
            elif candidate == current and not math.isinf(candidate):
                sup_other[x, du] += 1

    return [
        (entry, old, float(index.dis[entry[0]][entry[1], entry[2]]))
        for entry, old in original.items()
        if index.dis[entry[0]][entry[1], entry[2]] != old
    ]

"""Directed contraction hierarchy.

The weight-independent backbone is unchanged: the contraction order and
the shortcut *set* come from the symmetrized graph, exactly as in the
undirected case (Section 2's variant).  What changes is that every
shortcut ``{u, v}`` now carries **two** weights — the shortest valley
path ``u -> v`` and ``v -> u`` — each satisfying its own directed
Equation (<>)::

    phi(u -> v) = min( phi_G(u -> v),
                       min over t in scp-  of  phi(u -> t) + phi(t -> v) )

Queries run a forward upward search from ``s`` over out-weights and a
backward upward search from ``t`` over in-weights; the answer is the
best meeting point, as in the classic directed CH [26].
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_, QueryError
from repro.order.min_degree import minimum_degree_ordering
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["DirectedShortcutGraph", "directed_ch_indexing", "directed_ch_distance"]

#: A directed shortcut: the ordered pair (tail, head).
Arc = Tuple[int, int]


class DirectedShortcutGraph:
    """The directed CH index: per-direction shortcut weights + supports."""

    __slots__ = ("ordering", "_rank", "_w", "_up", "_down", "_arc_w", "_sup")

    def __init__(
        self,
        ordering: Ordering,
        weights: List[Dict[int, float]],
        arc_weights: Dict[Arc, float],
    ) -> None:
        self.ordering = ordering
        self._rank = ordering.rank
        self._w = weights  # _w[u][v] = phi(u -> v); key sets symmetric
        rank = self._rank
        self._up: List[List[int]] = [
            sorted((v for v in weights[u] if rank[v] > rank[u]),
                   key=rank.__getitem__)
            for u in range(len(weights))
        ]
        self._down: List[List[int]] = [
            sorted((v for v in weights[u] if rank[v] < rank[u]),
                   key=rank.__getitem__)
            for u in range(len(weights))
        ]
        self._arc_w = arc_weights
        self._sup: Dict[Arc, int] = {}

    def clone(self) -> "DirectedShortcutGraph":
        """An independent copy sharing the weight-independent skeleton."""
        dup = DirectedShortcutGraph.__new__(DirectedShortcutGraph)
        dup.ordering = self.ordering
        dup._rank = self._rank
        dup._w = [dict(nbrs) for nbrs in self._w]
        dup._up = self._up
        dup._down = self._down
        dup._arc_w = dict(self._arc_w)
        dup._sup = dict(self._sup)
        return dup

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._w)

    @property
    def num_shortcuts(self) -> int:
        """Number of skeleton shortcuts (each carries two weights)."""
        return sum(len(nbrs) for nbrs in self._w) // 2

    def has_shortcut(self, u: int, v: int) -> bool:
        """True if the skeleton shortcut between *u* and *v* exists."""
        return v in self._w[u]

    def weight(self, u: int, v: int) -> float:
        """``phi(u -> v)``."""
        try:
            return self._w[u][v]
        except (KeyError, IndexError):
            raise IndexError_(f"no shortcut between {u} and {v}") from None

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite ``phi(u -> v)`` (maintenance only)."""
        if v not in self._w[u]:
            raise IndexError_(f"no shortcut between {u} and {v}")
        self._w[u][v] = weight

    def arc_weight(self, u: int, v: int) -> float:
        """``phi_G(u -> v)``: the arc's weight in G, or inf."""
        return self._arc_w.get((u, v), math.inf)

    def set_arc_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the stored arc weight of ``u -> v``."""
        if (u, v) not in self._arc_w:
            raise IndexError_(f"({u} -> {v}) is not an arc of G")
        self._arc_w[(u, v)] = weight

    def is_arc(self, u: int, v: int) -> bool:
        """True if ``u -> v`` is an original arc of G."""
        return (u, v) in self._arc_w

    def support(self, u: int, v: int) -> int:
        """Number of directed Equation (<>) terms attaining ``phi(u -> v)``."""
        return self._sup[(u, v)]

    def set_support(self, u: int, v: int, value: int) -> None:
        """Overwrite the support of the directed shortcut ``u -> v``."""
        self._sup[(u, v)] = value

    def upward(self, u: int) -> List[int]:
        """Skeleton upward neighbors of *u*."""
        return self._up[u]

    def downward(self, u: int) -> List[int]:
        """Skeleton downward neighbors of *u*."""
        return self._down[u]

    def upward_out_weights(self, u: int) -> List[float]:
        """``phi(u -> v)`` for ``v in nbr+(u)``, aligned with :meth:`upward`."""
        w_u = self._w[u]
        return [w_u[v] for v in self._up[u]]

    def upward_in_weights(self, u: int) -> List[float]:
        """``phi(v -> u)`` for ``v in nbr+(u)``, aligned with :meth:`upward`."""
        w = self._w
        return [w[v][u] for v in self._up[u]]

    def lower_endpoint(self, u: int, v: int) -> int:
        """The skeleton endpoint with the smaller rank."""
        return u if self._rank[u] < self._rank[v] else v

    def shortcut_arcs(self) -> Iterator[Arc]:
        """All directed shortcuts (two per skeleton shortcut)."""
        for u, nbrs in enumerate(self._w):
            for v in nbrs:
                yield (u, v)

    def scp_minus(self, u: int, v: int) -> Iterator[int]:
        """Shared vertices *t* of the skeleton's downward pairs."""
        rank = self._rank
        limit = min(rank[u], rank[v])
        down_u, down_v = self._down[u], self._down[v]
        if len(down_u) <= len(down_v):
            smaller, other = down_u, self._w[v]
        else:
            smaller, other = down_v, self._w[u]
        for t in smaller:
            if rank[t] < limit and t in other:
                yield t

    # ------------------------------------------------------------------
    def evaluate_arc(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> Tuple[float, int]:
        """Directed Equation (<>) for ``u -> v``: ``(value, support)``."""
        ops = resolve_counter(counter)
        w_u = self._w[u]
        arc = self._arc_w.get((u, v), math.inf)
        best = arc
        support = 0 if math.isinf(best) else 1
        inspected = 0
        for t in self.scp_minus(u, v):
            inspected += 1
            candidate = w_u[t] + self._w[t][v]
            if candidate < best:
                best = candidate
                support = 1
            elif candidate == best and not math.isinf(candidate):
                support += 1
        ops.add("scp_minus_inspect", inspected)
        return best, support

    def recompute_arc(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> float:
        """Recompute and store ``phi(u -> v)`` and its support."""
        value, support = self.evaluate_arc(u, v, counter)
        self._w[u][v] = value
        self._sup[(u, v)] = support
        return value

    def rebuild_supports(self) -> None:
        """Initialize supports for every directed shortcut."""
        for u, v in self.shortcut_arcs():
            value, support = self.evaluate_arc(u, v)
            if value != self._w[u][v]:
                raise IndexError_(
                    f"arc {u}->{v}: stored {self._w[u][v]}, equation {value}"
                )
            self._sup[(u, v)] = support

    def validate(self) -> None:
        """Check both directed weights and supports of every shortcut."""
        for u, v in self.shortcut_arcs():
            value, support = self.evaluate_arc(u, v)
            if value != self._w[u][v]:
                raise IndexError_(
                    f"arc {u}->{v}: stored {self._w[u][v]}, equation {value}"
                )
            if self._sup.get((u, v)) != support:
                raise IndexError_(
                    f"arc {u}->{v}: stored support {self._sup.get((u, v))}, "
                    f"actual {support}"
                )

    def __repr__(self) -> str:
        return (
            f"DirectedShortcutGraph(n={self.n}, "
            f"shortcuts={self.num_shortcuts})"
        )


def directed_ch_indexing(
    graph: DiRoadNetwork,
    ordering: Optional[Ordering] = None,
    counter: Optional[OpCounter] = None,
) -> DirectedShortcutGraph:
    """Build the directed CH index (Algorithm 1, one relax per direction).

    The ordering defaults to the minimum degree heuristic on the
    symmetrized graph; the skeleton therefore matches the undirected
    index of the same network.
    """
    skeleton = graph.symmetrized()
    if ordering is None:
        ordering = minimum_degree_ordering(skeleton)
    ops = resolve_counter(counter)
    rank = ordering.rank
    n = graph.n

    # weights[u][v] = phi(u -> v); initialized from arcs, inf for the
    # missing direction of one-way streets.
    weights: List[Dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in graph.arcs():
        weights[u][v] = w
        weights[v].setdefault(u, math.inf)

    for u in ordering.order:
        higher = [v for v in weights[u] if rank[v] > rank[u]]
        for i, v in enumerate(higher):
            for w in higher[i + 1 :]:
                ops.add("contract_pair")
                # v -> u -> w and w -> u -> v.
                for a, b in ((v, w), (w, v)):
                    candidate = weights[a][u] + weights[u][b]
                    current = weights[a].get(b, math.inf)
                    if candidate < current:
                        weights[a][b] = candidate
                        weights[b].setdefault(a, math.inf)
                    elif b not in weights[a]:
                        weights[a][b] = math.inf
                        weights[b].setdefault(a, math.inf)

    index = DirectedShortcutGraph(
        ordering, weights, {(u, v): w for u, v, w in graph.arcs()}
    )
    index.rebuild_supports()
    return index


def directed_ch_distance(
    index: DirectedShortcutGraph,
    s: int,
    t: int,
    counter: Optional[OpCounter] = None,
) -> float:
    """``sd(s -> t)`` via forward-upward / backward-upward searches.

    The loop of :func:`repro.ch.query.ch_distance`: the forward side
    relaxes ``nbr+(u)`` over out-weights ``phi(u -> v)``, the backward
    side over in-weights ``phi(v -> u)``.
    """
    n = index.n
    if not 0 <= s < n:
        raise QueryError(f"source {s} out of range [0, {n})")
    if not 0 <= t < n:
        raise QueryError(f"target {t} out of range [0, {n})")
    if s == t:
        return 0.0
    up = index._up  # hot loop: direct access by design
    out_weights = index.upward_out_weights
    in_weights = index.upward_in_weights
    heappush, heappop = heapq.heappush, heapq.heappop
    inf = math.inf
    dist_f = [inf] * n
    dist_b = [inf] * n
    dist_f[s] = 0.0
    dist_b[t] = 0.0
    heap_f: List[Tuple[float, int]] = [(0.0, s)]
    heap_b: List[Tuple[float, int]] = [(0.0, t)]
    best = inf
    relaxed = 0
    while True:
        top_f = heap_f[0][0] if heap_f else inf
        top_b = heap_b[0][0] if heap_b else inf
        if top_f <= top_b:
            if top_f >= best:  # min(top_f, top_b) >= best
                break
            heap, dist, other, weights = heap_f, dist_f, dist_b, out_weights
        else:
            if top_b >= best:
                break
            heap, dist, other, weights = heap_b, dist_b, dist_f, in_weights
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        through = d + other[u]
        if through < best:
            best = through
        nbrs = up[u]
        relaxed += len(nbrs)
        for v, w in zip(nbrs, weights(u)):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    if relaxed:
        resolve_counter(counter).add("query_relax", relaxed)
    return best

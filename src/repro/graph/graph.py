"""The road-network graph type.

Following the paper's setting (Section 2), a road network is a connected
undirected weighted graph ``G = (V, E, phi)`` whose vertices are road
intersections, edges are road segments, and weights are non-negative
transit times.  Vertices are dense integers ``0 .. n-1`` so that every
index structure built on top (orderings, shortcut graphs, H2H arrays) can
use flat arrays.

Edge *weights* change frequently (traffic), the edge *set* rarely (road
construction); accordingly :class:`RoadNetwork` exposes a cheap
:meth:`~RoadNetwork.set_weight` / :meth:`~RoadNetwork.apply_batch` path for
weight updates and separate :meth:`~RoadNetwork.add_edge` /
:meth:`~RoadNetwork.remove_edge` operations for the rare structural
updates (Section 7 of the paper).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import GraphError, QueryError, UpdateError

__all__ = [
    "RoadNetwork",
    "WeightUpdate",
    "INFINITY",
    "canonical_edge",
    "validate_batch",
]

#: The weight used to represent a deleted / impassable road.
INFINITY = math.inf

#: A weight update: ``((u, v), new_weight)``.
WeightUpdate = Tuple[Tuple[int, int], float]


def canonical_edge(u: int, v: int) -> Tuple[int, int]:
    """The canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


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


class RoadNetwork:
    """An undirected weighted graph with dense integer vertices.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0 .. n-1``.

    Example
    -------
    >>> g = RoadNetwork(3)
    >>> g.add_edge(0, 1, 5.0)
    >>> g.add_edge(1, 2, 2.0)
    >>> g.weight(0, 1)
    5.0
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_own", "_m")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._adj: List[Dict[int, float]] = [{} for _ in range(n)]
        # _own[u] is 1 while row _adj[u] is this network's alone; 0 after
        # a copy() may share it, so the first write copies it (_row).
        self._own = bytearray(b"\x01") * n
        self._m = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int, float]]
    ) -> "RoadNetwork":
        """Build a network from ``(u, v, weight)`` triples."""
        graph = cls(n)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    def copy(self) -> "RoadNetwork":
        """An independent copy of this network, copy-on-write per row.

        The copy shares every adjacency row with this network until
        either side first writes that row: the writer then copies the
        row and writes its own, so a write to one side never shows in
        the other.  Copying costs O(n) references, not O(n + m) entries.
        Copying a network while another thread mutates it is unsupported.
        """
        n = len(self._adj)
        clone = RoadNetwork.__new__(RoadNetwork)
        clone._adj = list(self._adj)
        clone._own = bytearray(n)
        clone._m = self._m
        self._own = bytearray(n)
        return clone

    def _row(self, u: int) -> Dict[int, float]:
        """Row *u*, writable: copied first if a copy may share it."""
        if self._own[u]:
            return self._adj[u]
        row = self._adj[u] = self._adj[u].copy()
        self._own[u] = 1
        return row

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise QueryError(f"vertex {v} out of range [0, {self.n})")

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``(u, v)`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """The weight of edge ``(u, v)``.

        Raises
        ------
        GraphError
            If the edge does not exist.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over the neighbors of *u*."""
        self._check_vertex(u)
        return iter(self._adj[u])

    def neighbor_items(self, u: int):
        """Iterate over ``(neighbor, weight)`` pairs of *u*."""
        self._check_vertex(u)
        return self._adj[u].items()

    def degree(self, u: int) -> int:
        """Number of edges incident to *u*."""
        self._check_vertex(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all edges as canonical ``(u, v, weight)`` triples."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @staticmethod
    def _check_weight(w: float) -> float:
        if not isinstance(w, (int, float)):
            raise GraphError(f"weight must be a number, got {type(w).__name__}")
        if w < 0 or math.isnan(w):
            raise GraphError(f"weight must be non-negative, got {w}")
        return float(w)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add edge ``(u, v)`` with the given weight.

        Raises
        ------
        GraphError
            If the edge already exists, is a self-loop, or the weight is
            invalid.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) not allowed")
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already exists")
        w = self._check_weight(weight)
        self._row(u)[v] = w
        self._row(v)[u] = w
        self._m += 1

    def remove_edge(self, u: int, v: int) -> float:
        """Remove edge ``(u, v)`` and return its last weight."""
        w = self.weight(u, v)
        del self._row(u)[v]
        del self._row(v)[u]
        self._m -= 1
        return w

    def set_weight(self, u: int, v: int, weight: float) -> float:
        """Change the weight of an existing edge; return the old weight."""
        old = self.weight(u, v)
        w = self._check_weight(weight)
        self._row(u)[v] = w
        self._row(v)[u] = w
        return old

    def apply_batch(self, updates: Sequence[WeightUpdate]) -> List[WeightUpdate]:
        """Apply a batch of weight updates atomically; return the inverse.

        The whole batch is validated before the first weight is touched,
        so a bad update (unknown edge, negative/NaN weight) raises with
        the graph untouched — never with a prefix of the batch applied.

        The returned list restores the previous weights when passed back to
        :meth:`apply_batch`, which is how the experiment harness implements
        the paper's increase-then-restore protocol (Exp-1, Exp-2, Exp-4).
        """
        validated: List[Tuple[int, int, float, float]] = []
        for (u, v), w in updates:
            old = self.weight(u, v)
            validated.append((u, v, self._check_weight(w), old))
        inverse: List[WeightUpdate] = []
        for u, v, w, old in validated:
            self._row(u)[v] = w
            self._row(v)[u] = w
            inverse.append(((u, v), old))
        return inverse

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def connected_components(self) -> List[List[int]]:
        """Connected components as lists of vertices (BFS, iterative)."""
        seen = [False] * self.n
        components: List[List[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            component = [start]
            frontier = [start]
            while frontier:
                next_frontier: List[int] = []
                for u in frontier:
                    for v in self._adj[u]:
                        if not seen[v]:
                            seen[v] = True
                            component.append(v)
                            next_frontier.append(v)
                frontier = next_frontier
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True if the graph has at most one connected component."""
        return self.n <= 1 or len(self.connected_components()) == 1

    def total_weight(self) -> float:
        """Sum of all edge weights (useful for sanity checks)."""
        return sum(w for _, _, w in self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoadNetwork):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"RoadNetwork(n={self.n}, m={self.m})"

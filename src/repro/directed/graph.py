"""Directed road networks: arc-weighted digraphs.

Real road networks have one-way streets and direction-dependent transit
times; :class:`DiRoadNetwork` models them with per-arc weights.  The
*symmetrization* of a directed network — the undirected graph with an
edge wherever at least one arc exists — determines all the weight-
independent structure (contraction order, shortcut set), exactly as in
the undirected case.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import GraphError, QueryError
from repro.graph.graph import RoadNetwork

__all__ = ["DiRoadNetwork"]


class DiRoadNetwork:
    """A directed graph with dense integer vertices and arc weights.

    Example
    -------
    >>> g = DiRoadNetwork(2)
    >>> g.add_arc(0, 1, 5.0)   # one-way street
    >>> g.has_arc(0, 1), g.has_arc(1, 0)
    (True, False)
    """

    __slots__ = ("_out", "_in", "_own_out", "_own_in", "_m")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._out: List[Dict[int, float]] = [{} for _ in range(n)]
        self._in: List[Dict[int, float]] = [{} for _ in range(n)]
        # Per-row ownership flags, as RoadNetwork._own: 0 once a copy()
        # may share the row, so the first write copies it (_rows).
        self._own_out = bytearray(b"\x01") * n
        self._own_in = bytearray(b"\x01") * n
        self._m = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls, n: int, arcs: Iterable[Tuple[int, int, float]]
    ) -> "DiRoadNetwork":
        """Build a network from ``(u, v, weight)`` arc triples."""
        graph = cls(n)
        for u, v, w in arcs:
            graph.add_arc(u, v, w)
        return graph

    @classmethod
    def from_undirected(
        cls, graph: RoadNetwork, asymmetry: float = 1.0
    ) -> "DiRoadNetwork":
        """Both directions of every edge; reverse scaled by *asymmetry*."""
        digraph = cls(graph.n)
        for u, v, w in graph.edges():
            digraph.add_arc(u, v, w)
            digraph.add_arc(v, u, w * asymmetry)
        return digraph

    def copy(self) -> "DiRoadNetwork":
        """An independent copy, copy-on-write per row.

        The copy shares every out- and in-row with this network until
        either side first writes that row, which then gets a row of its
        own (:meth:`RoadNetwork.copy`).  Copying a network while another
        thread mutates it is unsupported.
        """
        n = len(self._out)
        clone = DiRoadNetwork.__new__(DiRoadNetwork)
        clone._out = list(self._out)
        clone._in = list(self._in)
        clone._own_out, clone._own_in = bytearray(n), bytearray(n)
        clone._m = self._m
        self._own_out, self._own_in = bytearray(n), bytearray(n)
        return clone

    def _rows(self, u: int, v: int) -> Tuple[Dict[int, float], Dict[int, float]]:
        """The out-row of *u* and the in-row of *v*, writable: each is
        copied first if a copy may share it."""
        if not self._own_out[u]:
            self._out[u] = self._out[u].copy()
            self._own_out[u] = 1
        if not self._own_in[v]:
            self._in[v] = self._in[v].copy()
            self._own_in[v] = 1
        return self._out[u], self._in[v]

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._out)

    @property
    def m(self) -> int:
        """Number of arcs."""
        return self._m

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise QueryError(f"vertex {v} out of range [0, {self.n})")

    def has_arc(self, u: int, v: int) -> bool:
        """True if arc ``u -> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def weight(self, u: int, v: int) -> float:
        """The weight of arc ``u -> v``.

        Raises
        ------
        GraphError
            If the arc does not exist.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._out[u][v]
        except KeyError:
            raise GraphError(f"arc ({u} -> {v}) does not exist") from None

    def successors(self, u: int):
        """``(v, weight)`` pairs of out-arcs of *u*."""
        self._check_vertex(u)
        return self._out[u].items()

    def predecessors(self, u: int):
        """``(v, weight)`` pairs of in-arcs of *u*."""
        self._check_vertex(u)
        return self._in[u].items()

    def arcs(self) -> Iterator[Tuple[int, int, float]]:
        """All arcs as ``(u, v, weight)``."""
        for u, out in enumerate(self._out):
            for v, w in out.items():
                yield u, v, w

    # ------------------------------------------------------------------
    @staticmethod
    def _check_weight(w: float) -> float:
        if not isinstance(w, (int, float)):
            raise GraphError(f"weight must be a number, got {type(w).__name__}")
        if w < 0 or math.isnan(w):
            raise GraphError(f"weight must be non-negative, got {w}")
        return float(w)

    def add_arc(self, u: int, v: int, weight: float) -> None:
        """Add arc ``u -> v``.

        Raises
        ------
        GraphError
            On self-loops, duplicates, or invalid weights.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) not allowed")
        if v in self._out[u]:
            raise GraphError(f"arc ({u} -> {v}) already exists")
        w = self._check_weight(weight)
        out, into = self._rows(u, v)
        out[v] = into[u] = w
        self._m += 1

    def set_weight(self, u: int, v: int, weight: float) -> float:
        """Change the weight of arc ``u -> v``; return the old weight."""
        old = self.weight(u, v)
        w = self._check_weight(weight)
        out, into = self._rows(u, v)
        out[v] = into[u] = w
        return old

    # ------------------------------------------------------------------
    def symmetrized(self) -> RoadNetwork:
        """The undirected structure graph (min arc weight per edge).

        Carries the weight-independent structure: contraction orders and
        shortcut sets are computed on this graph.
        """
        graph = RoadNetwork(self.n)
        for u, v, w in self.arcs():
            if graph.has_edge(u, v):
                if w < graph.weight(u, v):
                    graph.set_weight(u, v, w)
            else:
                graph.add_edge(u, v, w)
        return graph

    def is_strongly_connected(self) -> bool:
        """True if every vertex reaches every other (two BFS passes)."""
        if self.n <= 1:
            return True

        def reaches_all(adjacency) -> bool:
            seen = [False] * self.n
            seen[0] = True
            stack = [0]
            count = 1
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        count += 1
                        stack.append(v)
            return count == self.n

        return reaches_all(self._out) and reaches_all(self._in)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiRoadNetwork):
            return NotImplemented
        return self._out == other._out

    def __repr__(self) -> str:
        return f"DiRoadNetwork(n={self.n}, m={self.m})"

"""The shortcut graph ``sc(G)`` — the CH index (Section 2 of the paper).

Given a road network ``G`` and a total order ``pi`` over its vertices,
the shortcut graph contains a shortcut ``<u, v>`` for every pair of
vertices connected by a *valley path* (a path whose interior vertices all
rank below both endpoints); the shortcut's weight is the weight of the
shortest valley path.  Equivalently, the shortcut set is the elimination
fill of ``pi`` plus the original edges, and each weight satisfies
Equation (<>) of the paper::

    phi(e) = min( phi(e, G),
                  phi(e_1') + phi(e_1''), ..., phi(e_k') + phi(e_k'') )

where ``(e_i', e_i'')`` ranges over the *downward shortcut pairs* of
``e`` — pairs ``(<t, u>, <t, v>)`` with ``pi(t) < min(pi(u), pi(v))``.

Because the paper's CH variant is weight independent (Section 2), the
shortcut *set* is fixed at construction; weight updates only change
shortcut weights.  :class:`ShortcutGraph` therefore freezes the upward /
downward neighbor lists at build time and exposes mutation only through
weight setters, which is exactly the contract DCH/UE/IncH2H rely on.

Besides weights, the index stores per shortcut:

* ``sup(e)`` — the *support*: how many terms of Equation (<>) attain the
  minimum (used by the increase algorithms to detect when a weight must
  grow);
* ``via(e)`` — a witness: ``None`` when the original edge attains the
  minimum, else a common lower neighbor ``t`` attaining it (used for path
  unpacking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.graph.graph import RoadNetwork
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["Shortcut", "ShortcutGraph"]

#: A shortcut identified by its canonical endpoint pair (smaller id first).
Shortcut = Tuple[int, int]


@dataclass(frozen=True)
class _RecomputeResult:
    """Outcome of evaluating Equation (<>) for one shortcut."""

    weight: float
    support: int
    via: Optional[int]


class ShortcutGraph:
    """The CH index: shortcut weights, supports and adjacency over ``pi``.

    Instances are produced by :func:`repro.ch.indexing.ch_indexing`; the
    constructor wires up pre-computed state and is not meant to be called
    directly by library users.
    """

    __slots__ = (
        "ordering",
        "_rank",
        "_adj",
        "_up",
        "_down",
        "_edge_w",
        "_sup",
        "_via",
        "_m_shortcuts",
    )

    def __init__(
        self,
        ordering: Ordering,
        adj: List[Dict[int, float]],
        edge_weights: Dict[Shortcut, float],
    ) -> None:
        self.ordering = ordering
        self._rank = ordering.rank
        self._adj = adj
        rank = self._rank
        self._up: List[List[int]] = [
            sorted((v for v in adj[u] if rank[v] > rank[u]), key=rank.__getitem__)
            for u in range(len(adj))
        ]
        self._down: List[List[int]] = [
            sorted((v for v in adj[u] if rank[v] < rank[u]), key=rank.__getitem__)
            for u in range(len(adj))
        ]
        self._edge_w = edge_weights
        self._sup: Dict[Shortcut, int] = {}
        self._via: Dict[Shortcut, Optional[int]] = {}
        self._m_shortcuts = sum(len(nbrs) for nbrs in adj) // 2

    def clone(self) -> "ShortcutGraph":
        """An independent copy sharing the weight-independent structure.

        The shortcut *set* (and hence the ``nbr+``/``nbr-`` lists and the
        ordering) is fixed at construction, so clones share it; only the
        mutable state — weights, supports, witnesses and the stored
        ``phi(e, G)`` map — is copied.  Mutating the clone (maintenance,
        rollback) never touches the original, which is what the
        epoch-snapshot serving layer relies on.
        """
        dup = ShortcutGraph.__new__(ShortcutGraph)
        dup.ordering = self.ordering
        dup._rank = self._rank
        dup._adj = [dict(nbrs) for nbrs in self._adj]
        dup._up = self._up
        dup._down = self._down
        dup._edge_w = dict(self._edge_w)
        dup._sup = dict(self._sup)
        dup._via = dict(self._via)
        dup._m_shortcuts = self._m_shortcuts
        return dup

    def upward_weights(self, u: int) -> np.ndarray:
        """``phi(<u, v>)`` for ``v in nbr+(u)``, aligned with
        :meth:`upward`."""
        return np.array(self.upward_weight_row(u), dtype=np.float64)

    def upward_weight_row(self, u: int) -> Sequence[float]:
        """:meth:`upward_weights` as Python floats: the row the CH query
        loop walks beside ``nbr+(u)``."""
        up_u = self._up[u]
        if len(up_u) < 2:  # itemgetter returns a bare value for one key
            return [self._adj[u][v] for v in up_u]
        return itemgetter(*up_u)(self._adj[u])

    # ------------------------------------------------------------------
    # Identity / canonical keys
    # ------------------------------------------------------------------
    @staticmethod
    def key(u: int, v: int) -> Shortcut:
        """Canonical dictionary key of the shortcut between *u* and *v*."""
        return (u, v) if u < v else (v, u)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def num_shortcuts(self) -> int:
        """Number of shortcuts (the paper's "# of SCs", Table 2)."""
        return self._m_shortcuts

    def rank(self, v: int) -> int:
        """``pi(v)``."""
        return self._rank[v]

    def lower_endpoint(self, u: int, v: int) -> int:
        """The endpoint with the smaller rank (Q priority in DCH)."""
        return u if self._rank[u] < self._rank[v] else v

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def has_shortcut(self, u: int, v: int) -> bool:
        """True if shortcut ``<u, v>`` exists."""
        return v in self._adj[u]

    def shortcuts(self) -> Iterator[Shortcut]:
        """All shortcuts in canonical form."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, u: int) -> Iterator[int]:
        """All shortcut neighbors of *u*."""
        return iter(self._adj[u])

    def upward(self, u: int) -> List[int]:
        """``nbr+(u)``: shortcut neighbors ranked above *u* (rank order)."""
        return self._up[u]

    def downward(self, u: int) -> List[int]:
        """``nbr-(u)``: shortcut neighbors ranked below *u* (rank order)."""
        return self._down[u]

    def degree(self, u: int) -> int:
        """Number of shortcuts incident to *u*."""
        return len(self._adj[u])

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        """``phi(<u, v>)``: the weight of the shortcut.

        Raises
        ------
        IndexError_
            If the shortcut does not exist.
        """
        try:
            return self._adj[u][v]
        except (KeyError, IndexError):
            raise IndexError_(f"no shortcut between {u} and {v}") from None

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite ``phi(<u, v>)`` (maintenance algorithms only)."""
        if v not in self._adj[u]:
            raise IndexError_(f"no shortcut between {u} and {v}")
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def edge_weight(self, u: int, v: int) -> float:
        """``phi(e, G)``: the weight of edge ``(u, v)`` in ``G``, or ``inf``.

        The index keeps its own copy of the graph's weights because the
        maintenance algorithms (Algorithms 2-5) read and write
        ``phi(e, G)`` as part of their state.
        """
        return self._edge_w.get(self.key(u, v), math.inf)

    def set_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the stored ``phi(e, G)`` of edge ``(u, v)``."""
        key = self.key(u, v)
        if key not in self._edge_w:
            raise IndexError_(f"({u}, {v}) is not an edge of G")
        self._edge_w[key] = weight

    def is_graph_edge(self, u: int, v: int) -> bool:
        """True if ``(u, v)`` is an original edge of ``G``."""
        return self.key(u, v) in self._edge_w

    def edge_weights(self) -> Dict[Shortcut, float]:
        """A copy of the stored ``phi(e, G)`` map, keyed canonically.

        This is the public read face of the index's private edge-weight
        store; persistence and recovery rebuild the road network from it.
        """
        return dict(self._edge_w)

    def num_graph_edges(self) -> int:
        """Number of original graph edges tracked by the index."""
        return len(self._edge_w)

    def shortcut_records(
        self,
    ) -> Iterator[Tuple[int, int, float, int, Optional[int]]]:
        """All shortcuts as ``(u, v, weight, sup, via)`` records.

        Canonical order (``u < v``); the public iteration face used by
        :mod:`repro.persist` and the integrity verifier so neither has to
        reach into the private ``_sup`` / ``_via`` dictionaries.
        """
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    key = (u, v)
                    yield u, v, w, self._sup[key], self._via[key]

    # ------------------------------------------------------------------
    # Support / witness
    # ------------------------------------------------------------------
    def support(self, u: int, v: int) -> int:
        """``sup(<u, v>)``: number of Equation (<>) terms attaining the min."""
        return self._sup[self.key(u, v)]

    def set_support(self, u: int, v: int, value: int) -> None:
        """Overwrite ``sup(<u, v>)``."""
        self._sup[self.key(u, v)] = value

    def via(self, u: int, v: int) -> Optional[int]:
        """A witness for ``phi(<u, v>)``: ``None`` for the original edge,
        else a common lower neighbor whose downward pair attains the min."""
        return self._via[self.key(u, v)]

    def set_via(self, u: int, v: int, witness: Optional[int]) -> None:
        """Overwrite the path-unpacking witness of ``<u, v>``."""
        self._via[self.key(u, v)] = witness

    # ------------------------------------------------------------------
    # Shortcut-pair enumeration (Section 2)
    # ------------------------------------------------------------------
    def scp_minus(self, u: int, v: int) -> Iterator[int]:
        """Downward shortcut pairs of ``<u, v>`` as their shared vertex *t*.

        Yields each ``t`` with ``pi(t) < min(pi(u), pi(v))`` adjacent to
        both endpoints; the pair itself is ``(<t, u>, <t, v>)``.
        """
        rank = self._rank
        limit = min(rank[u], rank[v])
        down_u, down_v = self._down[u], self._down[v]
        if len(down_u) <= len(down_v):
            smaller, other = down_u, self._adj[v]
        else:
            smaller, other = down_v, self._adj[u]
        for t in smaller:
            if rank[t] < limit and t in other:
                yield t

    def scp_plus(self, u: int, v: int) -> Iterator[Tuple[int, int, int]]:
        """Upward shortcut pairs of ``<u, v>``.

        Let ``x`` be the lower-ranked endpoint and ``y`` the higher one.
        Yields triples ``(x, w, y)`` meaning the pair
        ``(<x, w>, <w, y>)`` — i.e. ``<x, y>`` together with ``<x, w>``
        forms a downward pair of ``<w, y>``, so a change of ``<x, y>``
        can affect ``<w, y>``.
        """
        rank = self._rank
        x, y = (u, v) if rank[u] < rank[v] else (v, u)
        adj_y = self._adj[y]
        for w in self._up[x]:
            if w != y and w in adj_y:
                yield (x, w, y)

    # ------------------------------------------------------------------
    # Equation (<>)
    # ------------------------------------------------------------------
    def evaluate_equation(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> _RecomputeResult:
        """Evaluate Equation (<>) for ``<u, v>`` from current weights.

        Returns the minimum value, how many terms attain it, and a witness.
        Does **not** mutate the index; see :meth:`recompute`.
        """
        ops = resolve_counter(counter)
        adj_u, adj_v = self._adj[u], self._adj[v]
        edge_w = self._edge_w.get(self.key(u, v), math.inf)
        best = edge_w
        support = 0 if math.isinf(best) else 1
        witness: Optional[int] = None
        # Inlined scp_minus: iterate the smaller downward list, membership
        # via the other endpoint's adjacency dict (hot path).
        rank = self._rank
        limit = min(rank[u], rank[v])
        down_u, down_v = self._down[u], self._down[v]
        if len(down_u) <= len(down_v):
            smaller, other = down_u, adj_v
        else:
            smaller, other = down_v, adj_u
        inspected = 0
        for t in smaller:
            if rank[t] < limit and t in other:
                inspected += 1
                candidate = adj_u[t] + adj_v[t]
                if candidate < best:
                    best = candidate
                    support = 1
                    witness = t
                elif candidate == best and not math.isinf(candidate):
                    support += 1
        ops.add("scp_minus_inspect", inspected)
        if best == edge_w:
            # Prefer the original edge as the unpacking witness.
            witness = None
        return _RecomputeResult(weight=best, support=support, via=witness)

    def recompute(
        self, u: int, v: int, counter: Optional[OpCounter] = None
    ) -> float:
        """Recompute and store weight, support and witness of ``<u, v>``.

        Returns the new weight.  This is line 13 of Algorithm 2 (DCH+).
        """
        result = self.evaluate_equation(u, v, counter)
        self.set_weight(u, v, result.weight)
        key = self.key(u, v)
        self._sup[key] = result.support
        self._via[key] = result.via
        return result.weight

    def rebuild_supports(self, counter: Optional[OpCounter] = None) -> None:
        """Recompute ``sup``/``via`` of every shortcut from Equation (<>).

        Called once at indexing time; weights must already satisfy
        Equation (<>) (they do after :func:`repro.ch.indexing.ch_indexing`).
        """
        for u, v in self.shortcuts():
            result = self.evaluate_equation(u, v, counter)
            if result.weight != self._adj[u][v]:
                raise IndexError_(
                    f"shortcut <{u}, {v}> weight {self._adj[u][v]} violates "
                    f"Equation (<>) value {result.weight}"
                )
            key = (u, v)
            self._sup[key] = result.support
            self._via[key] = result.via

    # ------------------------------------------------------------------
    # Whole-index views (tests, experiments)
    # ------------------------------------------------------------------
    def weight_snapshot(self) -> Dict[Shortcut, float]:
        """A copy of all shortcut weights, keyed canonically."""
        return {
            (u, v): w
            for u, nbrs in enumerate(self._adj)
            for v, w in nbrs.items()
            if u < v
        }

    def support_snapshot(self) -> Dict[Shortcut, int]:
        """A copy of all support counters."""
        return dict(self._sup)

    def via_snapshot(self) -> Dict[Shortcut, Optional[int]]:
        """A copy of all path-unpacking witnesses."""
        return dict(self._via)

    def size_in_bytes(self, incremental: bool = True) -> int:
        """Approximate index size for Fig. 3b.

        Counts 8 bytes per stored scalar: weight + two adjacency entries
        per shortcut, plus ``phi(e, G)`` per edge, plus (when
        *incremental*) ``sup`` and ``via`` per shortcut.
        """
        per_shortcut = 3 + (2 if incremental else 0)
        return 8 * (per_shortcut * self._m_shortcuts + len(self._edge_w))

    def validate(self) -> None:
        """Check internal consistency; raise :class:`IndexError_` on failure.

        Verifies symmetry of the adjacency, Equation (<>) for every
        shortcut, and correctness of every support counter and witness.
        """
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if self._adj[v].get(u) != w:
                    raise IndexError_(f"asymmetric weight on <{u}, {v}>")
        for u, v in self.shortcuts():
            result = self.evaluate_equation(u, v)
            key = (u, v)
            if result.weight != self._adj[u][v]:
                raise IndexError_(
                    f"<{u}, {v}>: stored weight {self._adj[u][v]}, "
                    f"Equation (<>) gives {result.weight}"
                )
            if self._sup.get(key) != result.support:
                raise IndexError_(
                    f"<{u}, {v}>: stored support {self._sup.get(key)}, "
                    f"actual {result.support}"
                )

    def __repr__(self) -> str:
        return f"ShortcutGraph(n={self.n}, shortcuts={self._m_shortcuts})"


def edge_weight_map(graph: RoadNetwork) -> Dict[Shortcut, float]:
    """Canonical ``(u, v) -> phi(e, G)`` map of *graph*'s edges."""
    return {(u, v): w for u, v, w in graph.edges()}

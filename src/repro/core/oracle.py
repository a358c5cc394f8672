"""The common face of every distance oracle in this library.

The paper compares oracles (CH, H2H) that differ wildly in internals but
share one contract: answer ``sd(s, t)`` queries on the *current* network
and absorb weight-update batches.  :class:`DistanceOracle` captures that
contract; :class:`DijkstraOracle` is its trivial index-free instance and
doubles as the ground truth in tests and examples.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

from repro.baselines.dijkstra import distance as dijkstra_distance
from repro.baselines.dijkstra import shortest_path as dijkstra_path
from repro.graph.graph import RoadNetwork, WeightUpdate

__all__ = ["DistanceOracle", "DijkstraOracle"]


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that answers distance queries on a dynamic road network."""

    @property
    def graph(self) -> RoadNetwork:
        """The road network in its current state."""

    def distance(self, s: int, t: int) -> float:
        """The shortest distance between *s* and *t* right now."""

    def apply(self, updates: Sequence[WeightUpdate]) -> object:
        """Apply a batch of weight updates to the network and the index."""

    def rebuild(self) -> None:
        """Recompute all derived state from the current network."""


class DijkstraOracle:
    """The index-free oracle: every query is a fresh Dijkstra search.

    Updates are free (there is nothing to maintain) and queries are
    expensive — the opposite end of the trade-off space from H2H.

    Example
    -------
    >>> from repro.graph import grid_network
    >>> oracle = DijkstraOracle(grid_network(3, 3, seed=7))
    >>> oracle.distance(0, 0)
    0.0
    """

    def __init__(self, graph: RoadNetwork) -> None:
        self._graph = graph

    def clone(self) -> "DijkstraOracle":
        """An independent copy over a copy of the network whose rows are
        shared with this one until first written (:meth:`RoadNetwork.copy`;
        copying while another thread mutates the network is unsupported)."""
        return DijkstraOracle(self._graph.copy())

    @property
    def graph(self) -> RoadNetwork:
        """The road network (queried live; never copied)."""
        return self._graph

    def distance(self, s: int, t: int) -> float:
        """Shortest distance via a point-to-point Dijkstra search."""
        return dijkstra_distance(self._graph, s, t)

    def path(self, s: int, t: int) -> Optional[List[int]]:
        """A shortest path as a vertex list (``None`` if unreachable)."""
        return dijkstra_path(self._graph, s, t)

    def apply(self, updates: Sequence[WeightUpdate]) -> None:
        """Apply weight updates; no index to maintain."""
        self._graph.apply_batch(updates)

    def rebuild(self) -> None:
        """No derived state; nothing to do."""

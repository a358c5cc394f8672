"""Shared fixtures for the repro test suite.

The star fixture is :func:`paper_example`: a reconstruction of the
paper's Figure 1 running example.  The paper never prints the edge list
of Figure 1a, but its examples state enough facts to pin one down; the
edge set below reproduces *every* number stated in Examples 2.1-2.4,
4.3 and 5.1-5.2 (shortcut weights, supports, distance/position arrays,
query results, and the exact update propagations), which the
``test_paper_example.py`` module asserts one by one.

Vertex ``v_i`` of the paper is vertex ``i - 1`` here; the ordering is
``pi = (v1, ..., v9)`` as in the paper.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import persist
from repro.ch.indexing import ch_indexing
from repro.graph.generators import grid_network, random_connected_network, road_network
from repro.graph.graph import RoadNetwork
from repro.h2h.indexing import h2h_indexing
from repro.order.ordering import Ordering

#: Paper Figure 1a edges, 1-indexed: (v_i, v_j, weight).
PAPER_EDGES_1INDEXED = [
    (1, 6, 3),
    (2, 5, 5),
    (2, 7, 1),
    (3, 5, 2),
    (3, 7, 2),
    (4, 7, 1),
    (4, 9, 3),
    (5, 8, 4),
    (6, 8, 7),
    (6, 9, 2),
    (8, 9, 4),
]


def v(i: int) -> int:
    """Paper vertex ``v_i`` -> internal id."""
    return i - 1


@pytest.fixture
def paper_graph() -> RoadNetwork:
    """The Figure 1a road network (9 vertices, 11 edges)."""
    return RoadNetwork.from_edges(
        9, [(a - 1, b - 1, float(w)) for a, b, w in PAPER_EDGES_1INDEXED]
    )


@pytest.fixture
def paper_ordering() -> Ordering:
    """The paper's ordering pi = (v1, ..., v9)."""
    return Ordering(list(range(9)))


@pytest.fixture
def paper_sc(paper_graph, paper_ordering):
    """The Figure 1b shortcut graph."""
    return ch_indexing(paper_graph, paper_ordering)


@pytest.fixture
def paper_h2h(paper_graph, paper_ordering):
    """The Figure 1c H2H index."""
    return h2h_indexing(paper_graph, paper_ordering)


@pytest.fixture
def small_grid() -> RoadNetwork:
    """A deterministic 5x5 grid."""
    return grid_network(5, 5, seed=7)


@pytest.fixture
def medium_road() -> RoadNetwork:
    """A deterministic ~200-vertex synthetic road network."""
    return road_network(200, seed=42)


@pytest.fixture
def random_net() -> RoadNetwork:
    """A small random connected graph (unstructured input)."""
    return random_connected_network(60, 50, seed=11)


@pytest.fixture
def rng() -> random.Random:
    """A seeded RNG for per-test sampling."""
    return random.Random(12345)


def random_pairs(n: int, count: int, seed: int = 0):
    """Deterministic list of (s, t) vertex pairs for query checks."""
    gen = random.Random(seed)
    return [(gen.randrange(n), gen.randrange(n)) for _ in range(count)]


def rewrite_archive(path, drop=(), **columns):
    """Re-save the index archive at *path* without the columns in *drop*
    and with *columns* replaced.  The embedded checksum is recomputed
    over the new payload, so only the loaders' consistency checks stand
    between it and a broken index."""
    with np.load(path) as data:
        payload = {key: np.array(data[key]) for key in data.files
                   if key != persist._CHECKSUM_KEY and key not in drop}
    payload.update(columns)
    persist._atomic_savez(path, payload)

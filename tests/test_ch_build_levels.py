"""Differential tests: the level-pass CH build against the reference
contraction.

:func:`repro.ch.indexing.ch_indexing` and
:func:`repro.directed.ch.directed_ch_indexing` build the shortcut
structure from a symbolic elimination and every weight, support and
witness in one vectorised pass per elimination-tree height.
``reference_ch_build`` holds the dict-of-dicts contraction and the
scalar Equation (<>) support pass they replaced.  Both must produce
byte-equal slot stores — structure, edge flags, ``phi``, ``phi(e, G)``,
``sup`` and ``via``, in one row or two — and equal ``contract_pair`` / ``scp_minus_inspect`` counts.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.ch.indexing import ch_indexing
from repro.directed.ch import directed_ch_indexing
from repro.graph.generators import grid_network, road_network
from repro.graph.graph import RoadNetwork
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter

from conftest import one_way_network
from reference_ch_build import reference_ch_indexing, reference_directed_ch_indexing


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_structure(ours, theirs) -> None:
    a, b = ours.structure, theirs.structure
    assert ours.ordering == theirs.ordering
    for name in ("low", "high", "prio"):
        assert same_bytes(getattr(a, name), getattr(b, name)), name
    assert same_bytes(ours._edge, theirs._edge), "edge"
    for name in ("up", "down", "down_slots", "slot", "ptr", "parent", "order",
                 "pre", "size", "height"):
        assert getattr(a, name) == getattr(b, name), name


def assert_same_build(graph: RoadNetwork, ordering=None, with_support=True):
    """Build *graph* both ways; return the level-pass index."""
    ops, ref_ops = OpCounter(), OpCounter()
    ours = ch_indexing(graph, ordering, ops, with_support)
    theirs = reference_ch_indexing(graph, ordering, ref_ops, with_support)
    assert_same_structure(ours, theirs)
    for name, x, y in zip(("phi", "phi(e, G)", "sup", "via"),
                          ours.slot_views(), theirs.slot_views()):
        assert same_bytes(np.asarray(x), np.asarray(y)), name
    assert ops.as_dict() == ref_ops.as_dict()
    if with_support:
        ours.validate()
    return ours


def assert_same_directed_build(graph, ordering=None):
    """Build directed *graph* both ways; return the level-pass index."""
    ops, ref_ops = OpCounter(), OpCounter()
    ours = directed_ch_indexing(graph, ordering, ops)
    theirs = reference_directed_ch_indexing(graph, ordering, ref_ops)
    assert_same_structure(ours, theirs)
    for name, x, y in zip(("phi", "phi_G", "sup", "via"),
                          ours.slot_views(), theirs.slot_views()):
        assert same_bytes(np.asarray(x), np.asarray(y)), name
    assert ops.as_dict() == ref_ops.as_dict()
    ours.validate()
    return ours


def unit_grid(rows: int, cols: int) -> RoadNetwork:
    """A grid with every weight 1: shortcuts tie often, so ``sup`` counts
    several terms and ``via`` must pick the lowest-ranked one."""
    graph = grid_network(rows, cols, seed=1)
    for u, v, _w in list(graph.edges()):
        graph.set_weight(u, v, 1.0)
    return graph


def test_paper_example(paper_graph, paper_ordering):
    assert_same_build(paper_graph, paper_ordering)
    assert_same_build(paper_graph)


def test_road_network():
    ops = OpCounter()
    index = assert_same_build(road_network(400, seed=5))
    ch_indexing(road_network(400, seed=5), index.ordering, ops)
    assert ops["contract_pair"] == ops["scp_minus_inspect"] > 0


def test_without_support():
    index = assert_same_build(road_network(400, seed=5), with_support=False)
    assert not np.asarray(index.slot_views()[2]).any()


def test_unit_grid_ties_and_witnesses():
    index = assert_same_build(unit_grid(8, 8))
    _, _, sup, via = (np.asarray(view) for view in index.slot_views())
    assert (sup > 1).any()
    assert (via >= 0).any()


@pytest.mark.parametrize("make_order", [
    lambda n: Ordering(list(reversed(range(n)))),
    lambda n: Ordering(random.Random(3).sample(range(n), n)),
], ids=["reversed", "random"])
def test_given_order_symbolic_elimination(make_order):
    graph = road_network(300, seed=2)
    assert_same_build(graph, make_order(graph.n))
    directed = one_way_network(150, seed=4)
    assert_same_directed_build(directed, make_order(directed.n))


def test_rebuild_after_infinite_deletion():
    graph = road_network(400, seed=5)
    hub = max(range(graph.n), key=graph.degree)
    for v in list(graph.neighbors(hub)):
        graph.set_weight(hub, v, math.inf)
    index = assert_same_build(graph, ch_indexing(road_network(400, seed=5)).ordering)
    w, _, sup, via = (np.asarray(view) for view in index.slot_views())
    cut = np.isinf(w)
    assert cut.any()
    assert not sup[cut].any() and (via[cut] == -1).all()


def test_one_way_network():
    assert_same_directed_build(one_way_network())


@pytest.mark.parametrize("graph", [
    RoadNetwork(1),
    RoadNetwork.from_edges(2, [(0, 1, 5.0)]),
], ids=["one-vertex", "two-vertex"])
def test_graphs_without_triangles(graph):
    ops = OpCounter()
    assert_same_build(graph, Ordering(list(range(graph.n))))
    ch_indexing(graph, Ordering(list(range(graph.n))), ops)
    assert ops["contract_pair"] == 0


def check_at_size(n: int) -> None:
    """The undirected and directed builds of one generated network, both
    in minimum degree order."""
    assert_same_build(road_network(n, seed=7))
    assert_same_directed_build(one_way_network(n, seed=7))


def test_level_build_small():
    check_at_size(120)


@pytest.mark.slow
def test_level_build_midsize():
    check_at_size(2_025)

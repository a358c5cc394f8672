"""Differential: slot-native directed DCH± against the key-based reference.

:func:`repro.ch.dch.dch_increase` / ``dch_decrease`` on a directed store
pop arc ids off one heap and walk ``nbr+(l)`` as the partner row;
``tests/reference_directed_dch.py`` is the same directed Algorithms 2-3
on ``(tail, head)`` keys, an addressable heap and per-key accessors.
On twin clones of one index, every batch must leave bit-equal ``phi``,
``phi_G`` and supports in both directions, return the same changed arcs
in the same order and add the same ``OpCounter`` dict.
"""

from __future__ import annotations

import math
import operator
import random

import pytest

from repro.ch.dch import dch_decrease, dch_increase
from repro.ch.indexing import ch_indexing
from repro.directed.ch import directed_ch_indexing
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_, UpdateError
from repro.graph.generators import road_network
from repro.utils.counters import OpCounter
from repro.workloads.updates import mixed_batch

from reference_directed_dch import (
    reference_directed_dch_decrease,
    reference_directed_dch_increase,
)

SLOTS = {"increase": dch_increase, "decrease": dch_decrease}
REFERENCE = {
    "increase": reference_directed_dch_increase,
    "decrease": reference_directed_dch_decrease,
}


def state(sc):
    """``phi``, ``phi_G`` and the supports as bytes: equal means bit-equal.
    The witness row ``via`` is left out: the reference predates witnesses
    on the directed store and never writes them."""
    return tuple(view.tobytes() for view in sc.slot_views()[:3])


class Twins:
    """One index maintained by the slot path, a clone by the reference."""

    def __init__(self, sc):
        self.slots = sc
        self.reference = sc.clone()

    def apply(self, direction, batch):
        results = []
        for run, sc in (
            (SLOTS[direction], self.slots),
            (REFERENCE[direction], self.reference),
        ):
            ops = OpCounter()
            results.append((run(sc, batch, ops), ops.as_dict()))
        (changed, ops), (ref_changed, ref_ops) = results
        assert changed == ref_changed  # order included
        assert ops == ref_ops
        assert state(self.slots) == state(self.reference)
        return changed

    def apply_mixed(self, batch):
        sc = self.slots
        self.apply("increase", [(a, w) for a, w in batch if w > sc.edge_weight(*a)])
        self.apply("decrease", [(a, w) for a, w in batch if w < sc.edge_weight(*a)])


def sample_arcs(digraph, count, seed):
    return random.Random(seed).sample(list(digraph.arcs()), count)


def rounds(digraph, twins, count):
    """Increase, decrease and mixed batches of *count* arcs, each undone."""
    first = sample_arcs(digraph, count, seed=1)
    second = sample_arcs(digraph, count, seed=2)
    assert twins.apply("increase", [((u, v), w * 2.0) for u, v, w in first])
    assert twins.apply("decrease", [((u, v), w) for u, v, w in first])
    assert twins.apply("decrease", [((u, v), w * 0.5) for u, v, w in second])
    assert twins.apply("increase", [((u, v), w) for u, v, w in second])
    mixed = sample_arcs(digraph, count, seed=3)
    half = len(mixed) // 2
    twins.apply_mixed(
        [((u, v), w * 2.0) for u, v, w in mixed[:half]]
        + [((u, v), w * 0.5) for u, v, w in mixed[half:]]
    )
    twins.apply_mixed([((u, v), w) for u, v, w in mixed])
    twins.slots.validate()


@pytest.fixture(scope="module")
def road400():
    return DiRoadNetwork.from_undirected(road_network(400), asymmetry=2.0)


def test_one_way_city_matches_reference(one_way_city):
    rounds(one_way_city, Twins(directed_ch_indexing(one_way_city)), 12)


@pytest.mark.parametrize(
    "size, count", [(400, 20), pytest.param(2025, 60, marks=pytest.mark.slow)]
)
def test_batches_match_reference_on_road_network(size, count, road400):
    digraph = road400 if size == 400 else DiRoadNetwork.from_undirected(
        road_network(size), asymmetry=2.0
    )
    rounds(digraph, Twins(directed_ch_indexing(digraph)), count)


def test_infinite_arc_then_restore_matches_reference(road400):
    twins = Twins(directed_ch_indexing(road400))
    u, v, w = sample_arcs(road400, 1, seed=11)[0]
    assert twins.apply("increase", [((u, v), math.inf)])
    assert twins.apply("decrease", [((u, v), w)])
    # Cut every arc out of a hub: each shortcut leaving it goes infinite
    # and, as a leg, must support nothing.
    hub = max(range(road400.n), key=lambda x: len(list(road400.successors(x))))
    cut = [(a, b, c) for a, b, c in road400.arcs() if a == hub]
    assert twins.apply("increase", [((a, b), math.inf) for a, b, _c in cut])
    sc = twins.slots
    for x in sc.upward(hub) + sc.downward(hub):
        assert math.isinf(sc.weight(hub, x)) and sc.support(hub, x) == 0
    assert twins.apply("decrease", [((a, b), c) for a, b, c in cut])
    sc.validate()


@pytest.mark.parametrize("direction", ["increase", "decrease"])
def test_negative_vertex_id_rejected(direction):
    # -1 must not wrap to vertex n - 1: n - 1 -> x is an arc of G.
    digraph = DiRoadNetwork.from_undirected(road_network(30, seed=1), asymmetry=2.0)
    sc = directed_ch_indexing(digraph)
    x = next(x for x in range(sc.n) if sc.is_graph_edge(sc.n - 1, x))
    before = state(sc)
    assert not sc.is_graph_edge(-1, x) and not sc.has_shortcut(-1, x)
    with pytest.raises(IndexError_):
        sc.weight(-1, x)
    w = sc.edge_weight(sc.n - 1, x)
    with pytest.raises(UpdateError):
        SLOTS[direction](sc, [((-1, x), w * 2 if direction == "increase" else w / 2)])
    assert state(sc) == before


def test_symmetric_digraph_runs_as_the_undirected_index():
    """One engine, two values of D: on a digraph with both arcs of every
    road at the road's weight, both rows of the ``D = 2`` store stay
    byte-equal to the ``D = 1`` store's one row, batch after batch, and
    the changed arcs are exactly both directions of the changed
    shortcuts."""
    graph = road_network(400)
    directed = directed_ch_indexing(DiRoadNetwork.from_undirected(graph))
    undirected = ch_indexing(graph, directed.ordering)

    def assert_rows_equal():
        for one, two in zip(undirected.slot_views(), directed.slot_views()):
            assert two.tobytes() == 2 * one.tobytes()

    assert_rows_equal()
    for seed in range(6):
        batch = mixed_batch(graph, 20, seed=seed)
        for run, keep in ((dch_increase, operator.gt), (dch_decrease, operator.lt)):
            half = [(e, w) for e, w in batch if keep(w, undirected.edge_weight(*e))]
            changed = run(undirected, half)
            arcs = run(directed, [((a, b), w) for (u, v), w in half
                                  for a, b in ((u, v), (v, u))])
            assert changed
            assert sorted(arcs) == sorted(
                ((a, b), old, new) for (u, v), old, new in changed
                for a, b in ((u, v), (v, u))
            )
            assert_rows_equal()

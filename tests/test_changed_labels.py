"""The IncH2H± change records as arrays (:class:`ChangedLabels`).

The level engine returns its changed super-shortcuts as flat keys, old
and new values.  Here they are held to the scalar references
(``tests/reference_inch2h.py``, ``tests/reference_directed_inch2h.py``)
as *ordered* tuple lists, undirected and directed, on a graph whose tree
is deep enough (at least 50 levels) that every call pops many levels.
Also covered: empty results, the merged report of a mixed batch, ``len``
equal to the number of label cells that changed, and op totals pinned
to the values the per-entry engine counted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic import DynamicH2H
from repro.directed.dynamic import DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_indexing
from repro.graph.generators import road_network
from repro.h2h.inch2h import ChangedLabels, inch2h_decrease, inch2h_increase
from repro.h2h.indexing import h2h_indexing
from repro.utils.counters import OpCounter
from repro.workloads.updates import mixed_batch, sample_edges

import reference_directed_inch2h
import reference_inch2h

N = 600  #: road_network(600): a tree of 72 levels

#: Op totals of the streams below, as the engine counted them before it
#: returned arrays; any change to the engine must keep them.
PINNED_OPS = {
    "undirected": {
        "anc_scan": 38378,
        "delta_inspect": 60,
        "dependent_inspect": 80749,
        "queue_pop": 19189,
        "queue_push": 19189,
        "scp_minus_inspect": 3084,
        "scp_plus_inspect": 14158,
        "star_term": 37753,
    },
    "directed": {
        "anc_scan": 55075,
        "delta_inspect": 100,
        "dependent_inspect": 140168,
        "queue_pop": 31590,
        "queue_push": 31590,
        "scp_minus_inspect": 4637,
        "scp_plus_inspect": 19342,
        "star_term": 67373,
    },
}


@pytest.fixture(scope="module")
def graph():
    return road_network(N)


def make(kind, graph):
    if kind == "undirected":
        return h2h_indexing(graph)
    return directed_h2h_indexing(DiRoadNetwork.from_undirected(graph, asymmetry=2.0))


ENGINE = {
    "undirected": (inch2h_increase, inch2h_decrease),
    "directed": (inch2h_increase, inch2h_decrease),
}
REFERENCE = {
    "undirected": (
        reference_inch2h.reference_increase,
        reference_inch2h.reference_decrease,
    ),
    "directed": (
        reference_directed_inch2h.reference_increase,
        reference_directed_inch2h.reference_decrease,
    ),
}


def order(index, record):
    """The engine's order: ``depth(u)``, then (directed) direction, ``u``
    and ``depth_a``."""
    key = record[0]
    u = key[-2]
    return (int(index.tree.depth[u]),) + tuple(key)


def stream(kind, graph, index):
    """Seeded raise, restore and mixed steps: ``(increase, batch)``."""
    edges = sample_edges(graph, 20, seed=7)
    if kind == "directed":  # both arcs of each sampled road
        edges = [a for u, v, w in edges for a in ((u, v, w), (v, u, w))]
        edges = [(u, v, index.sc.edge_weight(u, v)) for u, v, _w in edges]
    yield True, [((u, v), w * 2.0) for u, v, w in edges]
    yield False, [((u, v), float(w)) for u, v, w in edges]
    weight = index.sc.edge_weight
    mixed = mixed_batch(graph, 20, seed=8)
    if kind == "directed":
        mixed = [(e, weight(*e) * (w / graph.weight(*e))) for e, w in mixed]
    yield True, [(e, w) for e, w in mixed if w > weight(*e)]
    yield False, [(e, w) for e, w in mixed if w < weight(*e)]


@pytest.mark.parametrize("kind", ["undirected", "directed"])
def test_records_are_the_references_in_order(kind, graph):
    index = make(kind, graph)
    reference = index.clone()
    assert index.tree.height >= 50
    totals = OpCounter()
    for increase, batch in stream(kind, graph, index):
        step = 0 if increase else 1
        before = index.dis.copy()
        ops, ref_ops = OpCounter(), OpCounter()
        changed = ENGINE[kind][step](index, batch, ops)
        expected = REFERENCE[kind][step](reference, batch, ref_ops)
        assert isinstance(changed, ChangedLabels)
        assert list(changed) == sorted(expected, key=lambda r: order(index, r))
        # len is |AFF_3|: the label cells whose value moved.
        assert len(changed) == int(np.count_nonzero(index.dis != before))
        assert len(changed) > 0 and len({r[0][-2] for r in changed}) > 1
        assert ops.as_dict() == ref_ops.as_dict()
        np.testing.assert_array_equal(index.dis, reference.dis)
        np.testing.assert_array_equal(index.sup, reference.sup)
        totals.merge(ops)
    assert totals.as_dict() == PINNED_OPS[kind]


@pytest.mark.parametrize("kind", ["undirected", "directed"])
def test_empty_records(kind, graph):
    index = make(kind, graph)
    increase, decrease = ENGINE[kind]
    for run in (increase, decrease):
        changed = run(index, [])
        assert len(changed) == 0 and not changed
        assert list(changed) == []
        assert all(len(part) == 0 for part in changed.decode())
    some = increase(index, next(stream(kind, graph, index))[1])
    assert len(some) > 0
    assert (changed + some) is some and (some + changed) is some
    assert ChangedLabels() + ChangedLabels() == ChangedLabels()


@pytest.mark.parametrize("facade", [DynamicH2H, DynamicDiH2H])
def test_mixed_report_lists_increase_half_then_decrease_half(facade, graph):
    kind = "undirected" if facade is DynamicH2H else "directed"
    network = graph.copy() if kind == "undirected" else (
        DiRoadNetwork.from_undirected(graph, asymmetry=2.0)
    )
    oracle = facade(network)
    reference = oracle.index.clone()
    steps = list(stream(kind, graph, oracle.index))[2:]  # the mixed pair
    report = oracle.apply(steps[0][1] + steps[1][1])
    assert report.increases == len(steps[0][1])
    assert report.decreases == len(steps[1][1])
    halves = []
    for (increase, batch), run in zip(steps, REFERENCE[kind]):
        halves += sorted(run(reference, batch), key=lambda r: order(reference, r))
    records = report.changed_super_shortcuts
    assert list(records) == halves
    assert len(records) == len(halves)

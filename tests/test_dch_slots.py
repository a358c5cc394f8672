"""Differential: slot-native DCH± against the key-based scalar reference.

:func:`repro.ch.dch.dch_increase` / ``dch_decrease`` pop slot ids off one
int-keyed heap and walk ``nbr+(x)`` as the ``scp+`` row;
``tests/reference_dch.py`` is the same Algorithms 2-3 on canonical keys,
an addressable heap and the ``scp_plus`` generator.  On twin clones of
one index, every batch must leave bit-equal ``phi``, ``phi(e, G)``,
``sup`` and ``via``, return the same changed list in the same order and
add the same ``OpCounter`` dict.
"""

from __future__ import annotations

import math

import pytest

from repro.ch.dch import dch_decrease, dch_increase
from repro.ch.edge_updates import insert_edge
from repro.ch.indexing import ch_indexing
from repro.graph.generators import road_network
from repro.utils.counters import OpCounter
from repro.workloads.updates import (
    increase_batch,
    mixed_batch,
    restore_batch,
    sample_edges,
)

from reference_dch import reference_dch_decrease, reference_dch_increase

SLOTS = {"increase": dch_increase, "decrease": dch_decrease}
REFERENCE = {"increase": reference_dch_increase, "decrease": reference_dch_decrease}


def state(sc):
    """The four slot arrays as bytes: equal means bit-equal."""
    return tuple(view.tobytes() for view in sc.slot_views())


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
        self.apply("increase", [(e, w) for e, w in batch if w > sc.edge_weight(*e)])
        self.apply("decrease", [(e, w) for e, w in batch if w < sc.edge_weight(*e)])


def rounds(graph, twins, edges_per_batch):
    first = sample_edges(graph, edges_per_batch, seed=1)
    second = sample_edges(graph, edges_per_batch, seed=2)
    assert twins.apply("increase", increase_batch(first, 2.0))
    assert twins.apply("decrease", restore_batch(first))
    assert twins.apply("decrease", [((u, v), w * 0.5) for u, v, w in second])
    assert twins.apply("increase", restore_batch(second))
    twins.apply_mixed(mixed_batch(graph, edges_per_batch, seed=3))


@pytest.fixture(scope="module")
def road400():
    return road_network(400)


def test_paper_example_matches_reference(paper_graph, paper_sc):
    twins = Twins(paper_sc)
    twins.apply("increase", [((5, 8), 3.0)])
    twins.apply("decrease", [((5, 8), 2.0)])
    for u, v, w in paper_graph.edges():
        twins.apply_mixed([((u, v), w * 3.0)])
        twins.apply_mixed([((u, v), w)])
    twins.slots.validate()


def test_batches_match_reference_on_road_network(road400):
    twins = Twins(ch_indexing(road400))
    rounds(road400, twins, 20)
    twins.slots.validate()


def test_deletion_then_reinsertion_matches_reference(road400):
    twins = Twins(ch_indexing(road400))
    # Cut a hub off: its shortcuts go infinite and, as legs, must
    # support nothing (infinite candidates never tie).
    hub = max(road400.vertices(), key=road400.degree)
    cut = [(hub, v, w) for v, w in road400.neighbor_items(hub)]
    assert twins.apply("increase", [((u, v), math.inf) for u, v, _w in cut])
    sc = twins.slots
    assert all(math.isinf(sc.weight(hub, v)) for v in sc.neighbors(hub))
    assert all(sc.support(hub, v) == 0 for v in sc.neighbors(hub))
    others = [e for e in sample_edges(road400, 12, seed=12) if hub not in e[:2]]
    twins.apply("increase", increase_batch(others))
    twins.apply("decrease", restore_batch(others))
    assert twins.apply("decrease", restore_batch(cut))
    sc.validate()


def test_tying_decrease_adds_a_support(paper_sc):
    # (v8, v9) at 100 weighs 9 through v6; lowering the edge to exactly 9
    # ties it: no weight changes, the support grows by the edge term.
    twins = Twins(paper_sc)
    twins.apply("increase", [((7, 8), 100.0)])
    assert (paper_sc.weight(7, 8), paper_sc.support(7, 8)) == (9.0, 1)
    assert twins.apply("decrease", [((7, 8), 9.0)]) == []
    assert paper_sc.support(7, 8) == 2
    paper_sc.validate()


def test_update_after_insert_edge_matches_reference(road400):
    twins = Twins(ch_indexing(road400))
    sc = twins.slots
    u = 0
    v = next(t for t in range(road400.n - 1, 0, -1) if not sc.is_graph_edge(u, t))
    for index in (twins.slots, twins.reference):
        new_shortcuts, _changed = insert_edge(index, u, v, 1.0)
    assert new_shortcuts
    sc.validate()
    twins.apply("increase", [((u, v), 50.0)])
    twins.apply("decrease", [((u, v), 0.5)])
    rounds(road400, twins, 10)
    sc.validate()


@pytest.mark.slow
def test_batches_match_reference_at_mid_size():
    graph = road_network(2025)
    twins = Twins(ch_indexing(graph))
    rounds(graph, twins, 60)

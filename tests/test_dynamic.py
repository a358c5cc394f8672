"""Unit tests for the DynamicCH / DynamicH2H facades and oracle protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
import repro.ch.indexing as ch_indexing_module
from repro.ch.indexing import ch_indexing
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle, DistanceOracle
from repro.errors import UpdateError
from repro.h2h.indexing import h2h_indexing
from repro.utils.counters import OpCounter
from repro.workloads.updates import mixed_batch, sample_edges

from conftest import random_pairs


@pytest.fixture(params=["ch", "h2h", "dijkstra"])
def oracle(request, medium_road):
    if request.param == "ch":
        return DynamicCH(medium_road.copy())
    if request.param == "h2h":
        return DynamicH2H(medium_road.copy())
    return DijkstraOracle(medium_road.copy())


class TestProtocol:
    def test_satisfies_distance_oracle(self, oracle):
        assert isinstance(oracle, DistanceOracle)

    def test_distance_matches_dijkstra(self, oracle, medium_road):
        for s, t in random_pairs(medium_road.n, 15, seed=1):
            assert oracle.distance(s, t) == dijkstra(medium_road, s)[t]

    def test_apply_then_query(self, oracle, medium_road):
        batch = mixed_batch(medium_road, 10, seed=2)
        oracle.apply(batch)
        reference = medium_road.copy()
        reference.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 15, seed=3):
            assert oracle.distance(s, t) == dijkstra(reference, s)[t]

    def test_rebuild_preserves_answers(self, oracle, medium_road):
        before = [
            oracle.distance(s, t) for s, t in random_pairs(medium_road.n, 10, 4)
        ]
        oracle.rebuild()
        after = [
            oracle.distance(s, t) for s, t in random_pairs(medium_road.n, 10, 4)
        ]
        assert before == after


class TestUpdateReports:
    def test_report_counts_directions(self, medium_road):
        oracle = DynamicCH(medium_road.copy())
        edges = sample_edges(medium_road, 6, seed=5)
        batch = [((u, v), w * 2) for u, v, w in edges[:3]]
        batch += [((u, v), w * 0.5) for u, v, w in edges[3:]]
        report = oracle.apply(batch)
        assert report.increases == 3
        assert report.decreases == 3
        assert report.ops

    def test_duplicate_edges_rejected(self, medium_road):
        oracle = DynamicH2H(medium_road.copy())
        u, v, w = next(iter(medium_road.edges()))
        with pytest.raises(UpdateError):
            oracle.apply([((u, v), w * 2), ((v, u), w * 3)])

    def test_h2h_report_lists_super_shortcuts(self, medium_road):
        oracle = DynamicH2H(medium_road.copy())
        edges = sample_edges(medium_road, 5, seed=6)
        report = oracle.apply([((u, v), w * 3) for u, v, w in edges])
        assert report.changed_super_shortcuts

    def test_graph_kept_in_sync(self, medium_road):
        oracle = DynamicCH(medium_road.copy())
        u, v, w = next(iter(medium_road.edges()))
        oracle.apply([((u, v), w * 2)])
        assert oracle.graph.weight(u, v) == w * 2
        assert oracle.index.edge_weight(u, v) == w * 2


class TestCHPath:
    def test_path_consistent_with_distance(self, medium_road):
        oracle = DynamicCH(medium_road.copy())
        for s, t in random_pairs(medium_road.n, 10, seed=7):
            path = oracle.path(s, t)
            total = sum(
                oracle.graph.weight(a, b) for a, b in zip(path, path[1:])
            )
            assert total == oracle.distance(s, t)


class TestCHRebuild:
    def test_rebuild_reuses_the_order(self, medium_road, monkeypatch):
        """The order is weight independent: after weight changes,
        rebuild() keeps the index's ordering object, runs no minimum
        degree, and builds the same phi, phi(e, G), sup and via bytes as
        ch_indexing with that order on the current graph."""
        import repro.order.min_degree as min_degree

        oracle = DynamicCH(medium_road.copy())
        ordering = oracle.index.ordering
        oracle.apply(mixed_batch(medium_road, 6, seed=8))

        def not_called(graph):
            raise AssertionError("rebuild() ran minimum degree again")

        monkeypatch.setattr(min_degree, "_minimum_degree", not_called)
        oracle.rebuild()
        assert oracle.index.ordering is ordering
        fresh = ch_indexing(oracle.graph.copy(), ordering)
        for name, x, y in zip(("phi", "phi(e, G)", "sup", "via"),
                              oracle.index.slot_views(), fresh.slot_views()):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        oracle.index.validate()


def _no_elimination(monkeypatch):
    """Make any rebuild of the weight-independent structure fail."""

    def not_called(*args):
        raise AssertionError("rebuild() eliminated the graph again")

    monkeypatch.setattr(ch_indexing_module, "eliminated_structure", not_called)


def _counted(build):
    """``(result, OpCounter dict)`` of ``build(counter)``."""
    ops = OpCounter()
    return build(ops), ops.as_dict()


def _assert_same_slots(index, fresh):
    for name, x, y in zip(("phi", "phi(e, G)", "sup", "via"),
                          index.slot_views(), fresh.slot_views()):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestRebuildKeepsStructure:
    """Weight updates never change the order, the shortcut structure or
    the tree, so rebuild() recomputes only the weights on the ones the
    index holds: the same bytes and op counts as a fresh build."""

    def test_ch_rebuild(self, medium_road, monkeypatch):
        oracle = DynamicCH(medium_road.copy())
        structure = oracle.index.structure
        oracle.apply(mixed_batch(medium_road, 6, seed=8))
        fresh, fresh_ops = _counted(
            lambda ops: ch_indexing(oracle.graph.copy(), oracle.index.ordering, ops)
        )
        _no_elimination(monkeypatch)
        oracle.counter = OpCounter()
        oracle.rebuild()
        assert oracle.index.structure is structure
        _assert_same_slots(oracle.index, fresh)
        assert oracle.counter.as_dict() == fresh_ops

    def test_h2h_weights_only_rebuild(self, medium_road, monkeypatch):
        oracle = DynamicH2H(medium_road.copy())
        tree = oracle.tree
        oracle.apply(mixed_batch(medium_road, 6, seed=8))
        fresh, fresh_ops = _counted(
            lambda ops: h2h_indexing(
                oracle.graph.copy(), oracle.index.sc.ordering, ops
            )
        )
        _no_elimination(monkeypatch)
        oracle.counter = OpCounter()
        oracle.rebuild()
        assert oracle.tree is tree
        _assert_same_slots(oracle.index.sc, fresh.sc)
        for name in ("dis", "sup"):
            x, y = getattr(oracle.index, name), getattr(fresh, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert oracle.counter.as_dict() == fresh_ops

    def test_edge_missing_from_the_structure_is_rejected(self, medium_road):
        """A graph edge the structure does not hold fails loudly instead
        of weighing some other slot."""
        from repro.ch.indexing import weigh_structure
        from repro.errors import IndexError_

        index = ch_indexing(medium_road.copy())
        st = index.structure
        held = {(int(a), int(b)) for a, b in zip(st.low, st.high)}
        missing = next(
            (a, b) for a in range(medium_road.n) for b in range(a + 1, medium_road.n)
            if (a, b) not in held and (b, a) not in held
        )
        grown = medium_road.copy()
        grown.add_edge(*missing, 1.0)
        with pytest.raises(IndexError_):
            weigh_structure(index.ordering, st, grown)


class TestH2HWeightsOnlyRebuild:
    def test_weights_only_rebuild_keeps_tree(self, medium_road):
        oracle = DynamicH2H(medium_road.copy())
        tree_before = oracle.tree
        oracle.apply(mixed_batch(medium_road, 6, seed=8))
        oracle.rebuild()
        assert oracle.tree.parent == tree_before.parent
        oracle.index.validate()

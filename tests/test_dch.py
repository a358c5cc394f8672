"""Unit tests for DCH+ (Algorithm 2) and DCH- (Algorithm 3)."""

from __future__ import annotations

import math
import random

import pytest

from repro.baselines.dijkstra import dijkstra
from repro.ch.dch import dch_decrease, dch_increase
from repro.ch.indexing import ch_indexing
from repro.ch.query import ch_distance
from repro.core.dynamic import DynamicCH
from repro.directed.dynamic import DynamicDiCH
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_, UpdateError
from repro.graph.generators import road_network
from repro.reliability import verify_index
from repro.utils.counters import OpCounter
from repro.workloads.updates import increase_batch, restore_batch, sample_edges

from conftest import random_pairs


def assert_equals_rebuild(index, graph):
    """The incrementally maintained index must equal a fresh build."""
    fresh = ch_indexing(graph, index.ordering)
    assert index.weight_snapshot() == fresh.weight_snapshot()
    assert index.support_snapshot() == fresh.support_snapshot()


class TestValidation:
    def test_unknown_edge_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            dch_increase(paper_sc, [((0, 8), 5.0)])

    def test_duplicate_edge_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            dch_increase(paper_sc, [((2, 4), 5.0), ((4, 2), 6.0)])

    @pytest.mark.parametrize("run", [dch_increase, dch_decrease])
    def test_negative_vertex_id_rejected(self, run):
        # -1 must not wrap to vertex n - 1: (n - 1, x) is an edge of G.
        sc = ch_indexing(road_network(30, seed=1))
        x = next(x for x in range(sc.n) if sc.is_graph_edge(sc.n - 1, x))
        before = (sc.slot_weights.tobytes(), sc.slot_views()[1].tobytes())
        assert not sc.is_graph_edge(-1, x) and not sc.has_shortcut(-1, x)
        with pytest.raises(IndexError_):
            sc.slot(-1, x)
        with pytest.raises(IndexError_):
            sc.weight(-1, x)
        w = sc.edge_weight(sc.n - 1, x)
        with pytest.raises(UpdateError):
            run(sc, [((-1, x), w * 2 if run is dch_increase else w / 2)])
        assert (sc.slot_weights.tobytes(), sc.slot_views()[1].tobytes()) == before

    def test_decrease_given_to_increase_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            dch_increase(paper_sc, [((2, 4), 1.0)])

    def test_increase_given_to_decrease_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            dch_decrease(paper_sc, [((2, 4), 9.0)])

    def test_negative_weight_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            dch_decrease(paper_sc, [((2, 4), -1.0)])

    def test_nan_rejected(self, paper_sc):
        with pytest.raises(UpdateError):
            dch_increase(paper_sc, [((2, 4), float("nan"))])


class TestIncreaseSemantics:
    def test_noop_update_changes_nothing(self, paper_sc):
        before = paper_sc.weight_snapshot()
        changed = dch_increase(paper_sc, [((2, 4), 2.0)])  # same weight
        assert changed == []
        assert paper_sc.weight_snapshot() == before

    def test_increase_below_shortcut_weight_changes_nothing(self, medium_road):
        """Raising an edge that was not the shortest valley path leaves
        the shortcut untouched."""
        sc = ch_indexing(medium_road)
        # Make a slack edge: raise (u, w) above its best valley detour
        # (u, t, w through a lower t), so the shortcut <u, w> keeps the
        # detour's weight, strictly below the edge weight.
        u, w, detour = next(
            (u, w, min(sc.weight(t, u) + sc.weight(t, w) for t in sc.scp_minus(u, w)))
            for u, w, _weight in medium_road.edges()
            if any(True for _t in sc.scp_minus(u, w))
        )
        medium_road.set_weight(u, w, detour + 1.0)
        sc = ch_indexing(medium_road, sc.ordering)
        weight = medium_road.weight(u, w)
        assert sc.weight(u, w) < weight
        target = ((u, w), weight + 5.0)
        changed = dch_increase(sc, [target])
        assert changed == []

    def test_changed_list_reports_old_and_new(self, paper_sc):
        changed = dch_increase(paper_sc, [((2, 4), 3.0)])
        entry = next(c for c in changed if c[0] == (2, 4))
        assert entry[1] == 2.0 and entry[2] == 3.0

    def test_equals_rebuild_after_increase(self, medium_road):
        sc = ch_indexing(medium_road)
        edges = sample_edges(medium_road, 12, seed=1)
        batch = increase_batch(edges, 2.5)
        dch_increase(sc, batch)
        medium_road.apply_batch(batch)
        assert_equals_rebuild(sc, medium_road)

    def test_queries_after_increase(self, medium_road):
        sc = ch_indexing(medium_road)
        edges = sample_edges(medium_road, 10, seed=2)
        batch = increase_batch(edges, 3.0)
        dch_increase(sc, batch)
        medium_road.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 25, seed=3):
            assert ch_distance(sc, s, t) == dijkstra(medium_road, s)[t]

    def test_infinite_increase_deletes(self, paper_sc):
        dch_increase(paper_sc, [((0, 5), math.inf)])  # (v1, v6)
        assert math.isinf(ch_distance(paper_sc, 0, 8))
        paper_sc.validate()


class TestDecreaseSemantics:
    def test_noop_update_changes_nothing(self, paper_sc):
        before = paper_sc.weight_snapshot()
        assert dch_decrease(paper_sc, [((2, 4), 2.0)]) == []
        assert paper_sc.weight_snapshot() == before

    def test_decrease_propagates_through_pairs(self, paper_sc):
        changed = dch_decrease(paper_sc, [((2, 4), 1.0)])  # (v3, v5) 2 -> 1
        keys = {key for key, _, _ in changed}
        assert (2, 4) in keys
        assert (4, 6) in keys  # <v5, v7> improves to 3
        assert paper_sc.weight(4, 6) == 3.0

    def test_equals_rebuild_after_decrease(self, medium_road):
        sc = ch_indexing(medium_road)
        edges = sample_edges(medium_road, 12, seed=4)
        batch = [((u, w), weight * 0.25) for u, w, weight in edges]
        dch_decrease(sc, batch)
        medium_road.apply_batch(batch)
        assert_equals_rebuild(sc, medium_road)

    def test_tie_creating_decrease_updates_support(self, paper_sc):
        """Decreasing (v6, v8) to 2 makes the pair via v6 tie <v8, v9>.

        phi(<v8,v9>) = 4 (edge); after the decrease the downward pair
        (<v6,v8>, <v6,v9>) sums to 2 + 2 = 4, so the support must grow
        from 1 (edge only) to 2.
        """
        assert paper_sc.support(7, 8) == 1
        dch_decrease(paper_sc, [((5, 7), 2.0)])
        assert paper_sc.weight(7, 8) == 4.0
        assert paper_sc.support(7, 8) == 2
        paper_sc.validate()

    def test_increase_then_restore_roundtrip(self, medium_road):
        sc = ch_indexing(medium_road)
        before_weights = sc.weight_snapshot()
        before_support = sc.support_snapshot()
        edges = sample_edges(medium_road, 15, seed=5)
        dch_increase(sc, increase_batch(edges, 2.0))
        dch_decrease(sc, restore_batch(edges))
        assert sc.weight_snapshot() == before_weights
        assert sc.support_snapshot() == before_support


class TestWitnesses:
    """DCH+ keeps every witness attaining its shortcut's weight, on both
    stores: a partner (or edge) that keeps some support must not keep a
    witness through the term that rose."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DynamicCH(road_network(400)),
            lambda: DynamicDiCH(
                DiRoadNetwork.from_undirected(road_network(400), asymmetry=2.0)
            ),
        ],
        ids=["D=1", "D=2"],
    )
    def test_witnesses_attain_after_increases(self, make):
        oracle = make()
        graph = oracle.graph
        links = list(graph.arcs() if hasattr(graph, "arcs") else graph.edges())
        # The update draws alone come from Random(1), so the rounds are
        # the ones that left stale witnesses before the repair.
        rng, pairs = random.Random(1), random.Random(2)
        for _round in range(8):
            picked = rng.sample(links, 20)
            oracle.apply([((u, v), graph.weight(u, v) * 2.0) for u, v, _w in picked])
            # Witnesses, weights, supports and phi(e, G) against G.
            verify_index(oracle)
            for _ in range(50):
                s, t = pairs.randrange(graph.n), pairs.randrange(graph.n)
                path = oracle.path(s, t)
                length = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
                assert length == oracle.distance(s, t)


class TestRepeatedBatches:
    def test_many_random_rounds_stay_exact(self, medium_road):
        sc = ch_indexing(medium_road)
        rng = random.Random(0)
        graph = medium_road
        for round_id in range(6):
            edges = sample_edges(graph, 8, seed=round_id)
            factor = rng.choice([1.5, 2.0, 4.0])
            batch = increase_batch(edges, factor)
            dch_increase(sc, batch)
            graph.apply_batch(batch)
            sc.validate()
            dch_decrease(sc, restore_batch(edges))
            graph.apply_batch(restore_batch(edges))
            sc.validate()


class TestInstrumentation:
    def test_counters_populated(self, paper_sc):
        ops = OpCounter()
        dch_increase(paper_sc, [((2, 4), 3.0)], ops)
        assert ops["queue_pop"] == 3  # <v3,v5>, <v5,v7>, <v7,v8>
        assert ops["scp_plus_inspect"] >= 2

    def test_decrease_counters(self, paper_sc):
        ops = OpCounter()
        dch_decrease(paper_sc, [((2, 4), 1.0)], ops)
        assert ops["queue_pop"] >= 2

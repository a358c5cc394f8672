"""Unit tests for the ShortcutGraph data structure and Equation (<>)."""

from __future__ import annotations

import math

import pytest

from repro.ch.indexing import ch_indexing
from repro.ch.shortcut_graph import ShortcutGraph
from repro.directed.ch import directed_ch_indexing
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_
from repro.graph.generators import road_network
from repro.graph.graph import RoadNetwork
from repro.h2h.tree import TreeDecomposition
from repro.order.min_degree import minimum_degree_ordering
from repro.order.ordering import Ordering
from repro.utils.counters import OpCounter

from conftest import v


class TestStructure:
    def test_upward_downward_partition(self, paper_sc):
        for u in range(paper_sc.n):
            up = set(paper_sc.upward(u))
            down = set(paper_sc.downward(u))
            assert up | down == set(paper_sc.neighbors(u))
            assert not up & down

    def test_upward_sorted_by_rank(self, paper_sc):
        rank = paper_sc.ordering.rank
        for u in range(paper_sc.n):
            ranks = [rank[x] for x in paper_sc.upward(u)]
            assert ranks == sorted(ranks)
            assert all(r > rank[u] for r in ranks)

    def test_key_canonical(self):
        assert ShortcutGraph.key(5, 2) == (2, 5)

    def test_lower_endpoint(self, paper_sc):
        assert paper_sc.lower_endpoint(v(7), v(5)) == v(5)

    def test_shortcuts_iterator_canonical(self, paper_sc):
        keys = list(paper_sc.shortcuts())
        assert len(keys) == paper_sc.num_shortcuts
        assert all(a < b for a, b in keys)

    def test_degree(self, paper_sc):
        assert paper_sc.degree(v(7)) == 6


class TestWeights:
    def test_missing_shortcut_raises(self, paper_sc):
        with pytest.raises(IndexError_):
            paper_sc.weight(v(1), v(9))

    def test_set_weight_symmetric(self, paper_sc):
        paper_sc.set_weight(v(7), v(8), 99.0)
        assert paper_sc.weight(v(8), v(7)) == 99.0

    def test_set_weight_missing_raises(self, paper_sc):
        with pytest.raises(IndexError_):
            paper_sc.set_weight(v(1), v(9), 1.0)

    def test_edge_weight_of_non_edge_is_inf(self, paper_sc):
        # <v5, v7> is a pure shortcut, not a graph edge.
        assert math.isinf(paper_sc.edge_weight(v(5), v(7)))

    def test_edge_weight_of_edge(self, paper_sc):
        assert paper_sc.edge_weight(v(3), v(5)) == 2.0

    def test_set_edge_weight_rejects_non_edges(self, paper_sc):
        with pytest.raises(IndexError_):
            paper_sc.set_edge_weight(v(5), v(7), 1.0)

    def test_is_graph_edge(self, paper_sc):
        assert paper_sc.is_graph_edge(v(3), v(5))
        assert not paper_sc.is_graph_edge(v(5), v(7))


class TestEquationEvaluation:
    def test_evaluate_matches_stored(self, paper_sc):
        for a, b in paper_sc.shortcuts():
            result = paper_sc.evaluate_equation(a, b)
            assert result.weight == paper_sc.weight(a, b)
            assert result.support == paper_sc.support(a, b)

    def test_via_of_edge_backed_shortcut_is_none(self, paper_sc):
        assert paper_sc.via(v(3), v(5)) is None

    def test_via_of_derived_shortcut(self, paper_sc):
        assert paper_sc.via(v(7), v(8)) == v(5)
        assert paper_sc.via(v(5), v(7)) == v(3)

    def test_counter_tallies_scp_minus(self, paper_sc):
        ops = OpCounter()
        paper_sc.evaluate_equation(v(5), v(7), ops)
        # scp-(<v5,v7>) = {v2, v3}.
        assert ops["scp_minus_inspect"] == 2

    def test_recompute_overwrites(self, paper_sc):
        paper_sc.set_weight(v(5), v(7), 999.0)
        assert paper_sc.recompute(v(5), v(7)) == 4.0
        paper_sc.validate()

    def test_validate_catches_corruption(self, paper_sc):
        paper_sc.set_weight(v(5), v(7), 123.0)
        with pytest.raises(IndexError_):
            paper_sc.validate()

    def test_validate_catches_bad_support(self, paper_sc):
        paper_sc.set_support(v(5), v(7), 7)
        with pytest.raises(IndexError_):
            paper_sc.validate()

    def test_validate_catches_corrupt_upward_list(self, paper_sc):
        paper_sc.validate()
        up = next(
            row for row in map(paper_sc.upward, range(paper_sc.n)) if len(row) >= 2
        )
        up[0], up[1] = up[1], up[0]  # out of rank order
        with pytest.raises(IndexError_, match=r"nbr\+"):
            paper_sc.validate()

    def test_validate_catches_extra_upward_neighbor(self, paper_sc):
        u = v(1)
        stranger = next(
            x for x in range(paper_sc.n)
            if paper_sc.rank(x) > paper_sc.rank(u) and not paper_sc.has_shortcut(u, x)
        )
        paper_sc.upward(u).append(stranger)  # a neighbor with no slot
        with pytest.raises(IndexError_, match=r"nbr\+"):
            paper_sc.validate()

    def test_validate_catches_slot_not_mapping_back(self, paper_sc):
        slot = paper_sc.structure.slot
        a, b = next(paper_sc.shortcuts())
        c, d = list(paper_sc.shortcuts())[1]
        slot[a][b] = paper_sc.slot(c, d)
        with pytest.raises(IndexError_, match="map back"):
            paper_sc.validate()

    def test_validate_catches_missing_fill_shortcut(self, paper_sc):
        # DCH± reads every partner <w, y> of an nbr+(x) row without a
        # membership test, so a missing fill shortcut must fail validate().
        edges = paper_sc.edge_weights()
        fill = next(key for key in paper_sc.shortcuts() if key not in edges)
        adj = [{} for _ in range(paper_sc.n)]
        for (a, b), w in paper_sc.weight_snapshot().items():
            if (a, b) != fill:
                adj[a][b] = adj[b][a] = w
        broken = ShortcutGraph(paper_sc.ordering, adj, edges)
        with pytest.raises(IndexError_, match="clique"):
            broken.validate()

    def test_validate_catches_wrong_priority(self, paper_sc):
        paper_sc.structure.prio[0] += 1
        with pytest.raises(IndexError_, match="priorities"):
            paper_sc.validate()

    def test_insert_edge_on_clone_rebuilds_priorities(self, medium_road):
        from repro.ch.edge_updates import insert_edge

        sc = ch_indexing(medium_road)
        clone = sc.clone()
        u = 0
        far = next(t for t in range(sc.n - 1, 0, -1) if not sc.has_shortcut(u, t))
        new_shortcuts, _changed = insert_edge(clone, u, far, 1.0)
        assert new_shortcuts
        assert clone.structure is not sc.structure
        assert len(clone.structure.prio) == clone.num_shortcuts
        clone.validate()
        sc.validate()


class TestEliminationTree:
    def test_ranges_are_downward_closures(self, medium_road):
        st = ch_indexing(medium_road).structure
        for x in range(0, len(st.up), 7):
            closure, stack = {x}, [x]
            while stack:
                for t in st.down[stack.pop()]:
                    if t not in closure:
                        closure.add(t)
                        stack.append(t)
            lo = st.pre[x]
            assert set(st.order[lo : lo + st.size[x]]) == closure

    def test_forest_of_a_disconnected_graph(self):
        g = RoadNetwork.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        sc = ch_indexing(g, Ordering([0, 2, 1, 3]))
        st = sc.structure
        assert st.parent == [1, -1, 3, -1]
        assert sorted(st.order) == [0, 1, 2, 3]
        assert st.size == [1, 2, 1, 2]
        assert st.height == [0, 1, 0, 1]
        sc.validate()

    def test_h2h_tree_reads_the_structure_parent(self, medium_road):
        sc = ch_indexing(medium_road)
        assert TreeDecomposition(sc).parent is sc.structure.parent

    @pytest.mark.parametrize("corrupt, message", [
        ("parent", "first nbr"),
        ("pre", "inverse permutations"),
        ("size", "size"),
        ("swap", "inside its parent"),
        ("height", "height"),
    ])
    def test_validate_catches_corrupt_tree(self, paper_sc, corrupt, message):
        paper_sc.validate()
        st = paper_sc.structure
        top, child = st.order[0], st.order[1]
        if corrupt == "parent":
            st.parent[child] = child
        elif corrupt == "pre":
            st.pre[child] = 0
        elif corrupt == "size":
            st.size[top] += 1
        elif corrupt == "height":
            st.height[top] += 1
        else:  # consistent permutations, but a child now precedes its parent
            st.order[0], st.order[1] = child, top
            st.pre[top], st.pre[child] = 1, 0
        with pytest.raises(IndexError_, match=message):
            paper_sc.validate()


class TestScpEnumeration:
    def test_scp_minus_symmetric_in_arguments(self, paper_sc):
        a = sorted(paper_sc.scp_minus(v(7), v(8)))
        b = sorted(paper_sc.scp_minus(v(8), v(7)))
        assert a == b

    def test_scp_plus_orients_by_rank(self, paper_sc):
        for x, w_mid, y in paper_sc.scp_plus(v(8), v(7)):
            assert x == v(7)  # the lower-ranked endpoint
            assert paper_sc.has_shortcut(w_mid, y)

    @pytest.mark.parametrize(
        "build, pair",
        [
            pytest.param(build, pair, id=f"{prefix}pair{i}")
            for prefix, build in (
                ("", lambda g: ch_indexing(g)),
                ("directed-", lambda g: directed_ch_indexing(
                    DiRoadNetwork.from_undirected(g, asymmetry=2.0))),
            )
            for i, pair in enumerate([(-1, 23), (23, -1), (30, 23)])
        ],
    )
    def test_ids_outside_range_raise(self, build, pair):
        # A negative id must not index the lists of vertex n - 1: (-1, 23)
        # would otherwise read shortcut (29, 23).  Both stores, one row
        # and two.
        sc = build(road_network(30, seed=1))
        assert sc.has_shortcut(29, 23)
        for call in (sc.evaluate_equation, sc.scp_minus, sc.scp_plus):
            with pytest.raises(IndexError_, match="out of range"):
                call(*pair)

    def test_scp_pairs_are_duals(self, medium_road):
        """(e, e') is a downward pair of e'' iff scp_plus reports e''."""
        sc = ch_indexing(medium_road)
        for a, b in list(sc.shortcuts())[:50]:
            for x, w_mid, y in sc.scp_plus(a, b):
                assert x in list(sc.scp_minus(w_mid, y))


class TestSizeAccounting:
    def test_incremental_larger_than_static(self, paper_sc):
        assert paper_sc.size_in_bytes(True) > paper_sc.size_in_bytes(False)

    def test_scales_with_shortcuts(self, medium_road):
        sc = ch_indexing(medium_road)
        assert sc.size_in_bytes() > 8 * sc.num_shortcuts


class TestWeightSnapshot:
    def test_snapshot_is_copy(self, paper_sc):
        snap = paper_sc.weight_snapshot()
        paper_sc.set_weight(v(7), v(8), 1.0)
        assert snap[(v(7), v(8))] == 8.0

    def test_support_snapshot(self, paper_sc):
        snap = paper_sc.support_snapshot()
        assert snap[(v(5), v(7))] == 1

    def test_repr(self, paper_sc):
        assert "shortcuts=14" in repr(paper_sc)


class TestOrderingInteraction:
    def test_min_degree_ordering_builds_valid_index(self, medium_road):
        pi = minimum_degree_ordering(medium_road)
        sc = ch_indexing(medium_road, pi)
        sc.validate()

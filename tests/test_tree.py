"""Unit tests for the H2H tree decomposition."""

from __future__ import annotations

import pytest

from repro.ch.indexing import ch_indexing
from repro.errors import DisconnectedGraphError, IndexError_
from repro.graph.graph import RoadNetwork
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering


@pytest.fixture
def medium_tree(medium_road):
    return TreeDecomposition(ch_indexing(medium_road))


class TestStructure:
    def test_root_is_top_ranked(self, paper_h2h):
        assert paper_h2h.tree.root == paper_h2h.sc.ordering.top()

    def test_parent_is_lowest_ranked_upward_neighbor(self, medium_tree):
        rank = medium_tree.sc.ordering.rank
        for u in range(medium_tree.n):
            up = medium_tree.sc.upward(u)
            if up:
                assert medium_tree.parent[u] == min(up, key=rank.__getitem__)

    def test_depth_consistent_with_parent(self, medium_tree):
        for u in range(medium_tree.n):
            p = medium_tree.parent[u]
            if p >= 0:
                assert medium_tree.depth[u] == medium_tree.depth[p] + 1
            else:
                assert medium_tree.depth[u] == 0

    def test_property_2_upward_neighbors_are_ancestors(self, medium_tree):
        """Section 2's property (2) of the tree decomposition."""
        for u in range(medium_tree.n):
            for v in medium_tree.sc.upward(u):
                assert medium_tree.is_ancestor(v, u)

    def test_ancestors_rank_above_descendants(self, medium_tree):
        rank = medium_tree.sc.ordering.rank
        for u in range(medium_tree.n):
            for a in medium_tree.anc[u][:-1]:
                assert rank[a] > rank[u]

    def test_anc_ends_at_self(self, medium_tree):
        for u in range(medium_tree.n):
            assert medium_tree.anc[u][-1] == u
            assert len(medium_tree.anc[u]) == medium_tree.depth[u] + 1

    def test_pos_contains_own_depth(self, medium_tree):
        for u in range(medium_tree.n):
            assert medium_tree.depth[u] in medium_tree.pos[u]

    def test_pos_depths_match_x_set(self, medium_tree):
        for u in range(medium_tree.n):
            expected = sorted(
                int(medium_tree.depth[x])
                for x in list(medium_tree.sc.upward(u)) + [u]
            )
            assert list(medium_tree.pos[u]) == expected

    def test_top_down_order_lists_parents_first(self, medium_tree):
        seen = set()
        for u in medium_tree.top_down_order:
            p = medium_tree.parent[u]
            assert p == -1 or p in seen
            seen.add(u)

    def test_validate_passes(self, medium_tree):
        medium_tree.validate()

    def test_anc_rows_are_views_of_one_array(self, medium_tree):
        for u in range(medium_tree.n):
            assert medium_tree.anc[u].base is medium_tree.anc_flat

    def test_validate_catches_corrupt_csr(self, paper_h2h):
        tree = paper_h2h.tree
        tree.down_slot[0] = (tree.down_slot[0] + 1) % len(tree.down_idx)
        with pytest.raises(IndexError_, match="down_slot"):
            tree.validate()

    def test_disconnected_graph_rejected(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        sc = ch_indexing(g, Ordering([0, 1, 2]))
        with pytest.raises(DisconnectedGraphError):
            TreeDecomposition(sc)


class TestDfsTimes:
    def test_ancestor_iff_interval_nesting(self, medium_tree):
        import random

        rng = random.Random(0)
        for _ in range(100):
            a = rng.randrange(medium_tree.n)
            b = rng.randrange(medium_tree.n)
            by_times = medium_tree.is_ancestor(a, b)
            by_lca = medium_tree.lca(a, b) == a
            assert by_times == by_lca

    def test_discovery_before_finish(self, medium_tree):
        for u in range(medium_tree.n):
            assert medium_tree.disc[u] < medium_tree.fin[u]

    def test_down_by_disc_sorted(self, medium_tree):
        for a in range(medium_tree.n):
            discs = [medium_tree.disc[x] for x in medium_tree.down_by_disc[a]]
            assert discs == sorted(discs)


class TestFirstAndDescendantRange:
    def test_first_matches_definition(self, medium_tree):
        import random

        rng = random.Random(1)
        for _ in range(60):
            a = rng.randrange(medium_tree.n)
            row = medium_tree.down_by_disc[a]
            if not row:
                continue
            u = rng.choice(row)
            first = medium_tree.first(u, a)
            for i, x in enumerate(row):
                if medium_tree.disc[x] > medium_tree.disc[u]:
                    assert first == i
                    break
            else:
                assert first == len(row)

    def test_down_in_descendants_matches_filter(self, medium_tree):
        import random

        rng = random.Random(2)
        for _ in range(80):
            u = rng.randrange(medium_tree.n)
            for a in medium_tree.anc[u][:-1]:
                a = int(a)
                expected = [
                    x
                    for x in medium_tree.down_by_disc[a]
                    if x != u and medium_tree.is_ancestor(u, x)
                ]
                assert list(medium_tree.down_in_descendants(a, u)) == expected

    def test_excludes_u_itself(self, medium_tree):
        for u in range(min(medium_tree.n, 50)):
            for a in medium_tree.anc[u][:-1]:
                assert u not in list(medium_tree.down_in_descendants(int(a), u))


class TestStatistics:
    def test_super_shortcut_count(self, paper_h2h):
        tree = paper_h2h.tree
        expected = sum(int(tree.depth[u]) + 1 for u in range(tree.n))
        assert tree.num_super_shortcuts() == expected

    def test_height(self, paper_h2h):
        assert paper_h2h.tree.height == 5

    def test_repr(self, paper_h2h):
        assert "TreeDecomposition" in repr(paper_h2h.tree)

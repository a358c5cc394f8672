"""Unit tests for H2HIndexing and the H2HIndex object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.ch.indexing import ch_indexing
from repro.errors import IndexError_
from repro.h2h.index import H2HIndex
from repro.h2h.indexing import fill_distance_arrays, fill_row, h2h_indexing
from repro.h2h.tree import TreeDecomposition
from repro.utils.counters import OpCounter


class TestDistanceArrays:
    def test_dis_rows_are_true_distances(self, medium_road):
        index = h2h_indexing(medium_road)
        tree = index.tree
        for u in range(0, medium_road.n, 17):
            dist = dijkstra(medium_road, u)
            for d, a in enumerate(tree.anc[u]):
                assert index.dis[u, d] == dist[int(a)]

    def test_self_distance_zero(self, medium_road):
        index = h2h_indexing(medium_road)
        for u in range(medium_road.n):
            assert index.dis[u, int(index.tree.depth[u])] == 0.0

    def test_padding_is_inf(self, paper_h2h):
        depth = paper_h2h.tree.depth
        for u in range(paper_h2h.n):
            row = paper_h2h.dis[u, int(depth[u]) + 1 :]
            assert np.isinf(row).all()

    def test_supports_match_equation(self, medium_road):
        h2h_indexing(medium_road).validate()

    def test_counter_counts_star_terms(self, small_grid):
        ops = OpCounter()
        h2h_indexing(small_grid, counter=ops)
        assert ops["star_term"] > 0


class TestFillRow:
    def test_fill_row_idempotent(self, paper_h2h):
        before = paper_h2h.dis.copy()
        for u in paper_h2h.tree.top_down_order:
            fill_row(paper_h2h.sc, paper_h2h.tree, paper_h2h.dis,
                     paper_h2h.sup, u)
        assert np.array_equal(paper_h2h.dis, before)

    def test_fill_distance_arrays_from_parts(self, medium_road):
        sc = ch_indexing(medium_road)
        tree = TreeDecomposition(sc)
        index = fill_distance_arrays(sc, tree)
        index.validate()


class TestEvaluateEntry:
    def test_matches_stored(self, paper_h2h):
        for u in range(paper_h2h.n):
            for d in range(int(paper_h2h.tree.depth[u])):
                value, support = paper_h2h.evaluate_entry(u, d)
                assert value == paper_h2h.dis[u, d]
                assert support == paper_h2h.sup[u, d]

    def test_recompute_entry_repairs(self, paper_h2h):
        paper_h2h.dis[1, 0] = 999.0
        new = paper_h2h.recompute_entry(1, 0)
        assert new != 999.0
        paper_h2h.validate()

    def test_sd_between_cases(self, paper_h2h):
        tree = paper_h2h.tree
        u = 1  # v2: anc = v9, v8, v7, v5, v2
        # v at greater depth than a: dis[v, da].
        assert paper_h2h.sd_between(u, 6, 0) == paper_h2h.dis[6, 0]
        # v shallower than a: dis[anc_u[da], depth(v)].
        a_depth = 3  # ancestor v5
        assert paper_h2h.sd_between(u, 8, a_depth) == paper_h2h.dis[
            int(tree.anc[u][a_depth]), 0
        ]
        # v == a.
        assert paper_h2h.sd_between(u, int(tree.anc[u][2]), 2) == 0.0


class TestVectorizedKernels:
    def test_candidate_row_matches_scalar(self, medium_road):
        index = h2h_indexing(medium_road)
        sc = index.sc
        for u in range(0, medium_road.n, 23):
            du = int(index.tree.depth[u])
            if du == 0:
                continue
            for v in sc.upward(u)[:3]:
                row = index.candidate_row(u, v, sc.weight(u, v))
                for da in range(du):
                    expected = sc.weight(u, v) + index.sd_between(u, v, da)
                    assert row[da] == expected

    def test_candidate_block_min_equals_dis(self, medium_road):
        index = h2h_indexing(medium_road)
        for u in range(0, medium_road.n, 31):
            du = int(index.tree.depth[u])
            if du == 0:
                continue
            depths = np.arange(du, dtype=np.int64)
            block = index.candidate_block(u, depths)
            assert np.array_equal(block.min(axis=0), index.dis[u, :du])


class TestValidation:
    def test_validate_catches_bad_distance(self, paper_h2h):
        paper_h2h.dis[1, 0] += 1
        with pytest.raises(IndexError_):
            paper_h2h.validate()

    def test_validate_catches_bad_support(self, paper_h2h):
        paper_h2h.sup[1, 0] += 1
        with pytest.raises(IndexError_):
            paper_h2h.validate()

    def test_validate_catches_nonzero_self_distance(self, paper_h2h):
        paper_h2h.dis[1, int(paper_h2h.tree.depth[1])] = 5.0
        with pytest.raises(IndexError_):
            paper_h2h.validate()

    def test_weights_follow_shortcut_slots(self, paper_h2h):
        tree = paper_h2h.tree
        for a in range(paper_h2h.n):
            for s in range(tree.down_ptr[a], tree.down_ptr[a + 1]):
                v = int(tree.down_idx[s])
                sc = paper_h2h.sc
                store_slot = tree.down_slot[s]
                assert sc.slot(v, a) == store_slot
                assert sc.slot_weights[0, store_slot] == sc.weight(a, v)
                assert tree.shortcut_slots([v], [a])[0] == s


class TestSizeAndViews:
    def test_num_super_shortcuts(self, paper_h2h):
        assert paper_h2h.num_super_shortcuts() == 31

    def test_distance_row_length(self, paper_h2h):
        for u in range(paper_h2h.n):
            row = paper_h2h.distance_row(u)
            assert len(row) == int(paper_h2h.tree.depth[u]) + 1

    def test_snapshot_is_copy(self, paper_h2h):
        snap = paper_h2h.snapshot()
        paper_h2h.dis[0, 0] = 123.0
        assert snap[0, 0] != 123.0 or snap[0, 0] == 0.0

    def test_incremental_size_about_double_anc_dis(self, medium_road):
        index = h2h_indexing(medium_road)
        assert index.size_in_bytes(True) > index.size_in_bytes(False)

    def test_repr(self, paper_h2h):
        assert "H2HIndex" in repr(paper_h2h)

    def test_height_property(self, paper_h2h):
        assert paper_h2h.height == paper_h2h.tree.height

    def test_constructed_type(self, small_grid):
        assert isinstance(h2h_indexing(small_grid), H2HIndex)

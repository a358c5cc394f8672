"""Integrity verification: corrupted entries are found, clean ones pass."""

from __future__ import annotations

import pytest

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.errors import IntegrityError
from repro.reliability import ResilientOracle, verify_ch, verify_h2h, verify_index

from conftest import one_way_network


class TestCleanIndexes:
    def test_ch_exhaustive(self, paper_sc, paper_graph):
        checked = verify_ch(paper_sc, paper_graph)
        assert checked == paper_sc.num_shortcuts

    def test_ch_sampled(self, small_grid):
        from repro.ch.indexing import ch_indexing

        index = ch_indexing(small_grid)
        assert verify_ch(index, small_grid, sample=10, seed=3) == 10

    def test_h2h_exhaustive(self, paper_h2h, paper_graph):
        assert verify_h2h(paper_h2h, paper_graph) > 0

    def test_dispatch_on_index_and_oracle(self, small_grid):
        ch = DynamicCH(small_grid.copy())
        h2h = DynamicH2H(small_grid.copy())
        assert verify_index(ch.index, ch.graph) > 0
        assert verify_index(h2h.index, h2h.graph) > 0
        assert verify_index(ch) > 0  # unwraps .index / .graph itself
        assert verify_index(h2h) > 0

    def test_unverifiable_object_rejected(self):
        with pytest.raises(IntegrityError):
            verify_index(object())


class TestCorruptionDetected:
    def test_bad_shortcut_weight(self, paper_sc, paper_graph):
        paper_sc.set_weight(4, 7, paper_sc.weight(4, 7) + 1.0)
        with pytest.raises(IntegrityError, match="Equation"):
            verify_ch(paper_sc, paper_graph)

    def test_bad_support(self, paper_sc):
        paper_sc.set_support(4, 7, paper_sc.support(4, 7) + 5)
        with pytest.raises(IntegrityError, match="support"):
            verify_ch(paper_sc)

    def test_bad_witness(self, paper_sc):
        corrupted = False
        for u, v in paper_sc.shortcuts():
            if paper_sc.via(u, v) is not None:
                continue
            for other in paper_sc.neighbors(u):
                if other == v:
                    continue
                detour = (
                    not paper_sc.has_shortcut(other, v)
                    or paper_sc.weight(u, other) + paper_sc.weight(other, v)
                    != paper_sc.weight(u, v)
                )
                if detour:
                    paper_sc.set_via(u, v, other)
                    corrupted = True
                    break
            if corrupted:
                break
        assert corrupted, "no corruptible witness found in the paper index"
        with pytest.raises(IntegrityError, match="witness"):
            verify_ch(paper_sc)

    def test_graph_index_divergence(self, paper_sc, paper_graph):
        # Mutate the graph behind the index's back: the cross-check must
        # notice even though the index itself is internally consistent.
        paper_graph.set_weight(0, 5, 99.0)
        with pytest.raises(IntegrityError, match="diverged"):
            verify_ch(paper_sc, paper_graph)
        verify_ch(paper_sc)  # without the graph there is nothing wrong

    def test_vertex_count_mismatch(self, paper_sc, small_grid):
        with pytest.raises(IntegrityError, match="vertices"):
            verify_ch(paper_sc, small_grid)

    def test_bad_dis_entry(self, paper_h2h):
        # Vertex 1 (paper v2) is at depth 4; (1, 2) is a proper entry.
        paper_h2h.dis[1, 2] += 0.5
        with pytest.raises(IntegrityError, match="super-shortcut"):
            verify_h2h(paper_h2h)

    def test_bad_diagonal(self, paper_h2h):
        u = 8
        paper_h2h.dis[u, int(paper_h2h.tree.depth[u])] = 1.0
        with pytest.raises(IntegrityError, match="must be 0"):
            verify_h2h(paper_h2h)

    def test_bad_h2h_support(self, paper_h2h):
        paper_h2h.sup[1, 0] += 3
        with pytest.raises(IntegrityError, match="support"):
            verify_h2h(paper_h2h)

    def test_sampling_finds_corruption_with_right_seed(self, small_grid):
        from repro.ch.indexing import ch_indexing

        index = ch_indexing(small_grid)
        u, v = next(index.shortcuts())
        index.set_weight(u, v, index.weight(u, v) + 1.0)
        with pytest.raises(IntegrityError):
            verify_ch(index)  # exhaustive always finds it


class TestDirectedOracles:
    """The ``D = 2`` stores: the graph cross-check reads the arcs, no
    symmetry is asked of them, and both label matrices are checked."""

    @pytest.mark.parametrize("cls", [DynamicDiCH, DynamicDiH2H])
    def test_clean_oracle_verifies(self, cls):
        oracle = cls(one_way_network(60))
        assert verify_index(oracle) > 0
        assert verify_index(oracle, sample=15, seed=2) > 0
        resilient = ResilientOracle(oracle)
        assert resilient.check_integrity() and not resilient.degraded

    @pytest.mark.parametrize("cls", [DynamicDiCH, DynamicDiH2H])
    def test_corrupted_arc_weight_detected(self, cls):
        oracle = cls(one_way_network(60))
        sc = oracle.index if cls is DynamicDiCH else oracle.index.sc
        u, v, _w = next(iter(oracle.graph.arcs()))
        sc.set_weight(u, v, sc.weight(u, v) + 1.0)
        with pytest.raises(IntegrityError, match="Equation"):
            verify_index(oracle)

    def test_graph_divergence_on_an_arc_detected(self):
        oracle = DynamicDiCH(one_way_network(60))
        u, v, w = next(iter(oracle.graph.arcs()))
        oracle.graph.set_weight(u, v, w + 7.0)
        with pytest.raises(IntegrityError, match="diverged"):
            verify_index(oracle)

    @pytest.mark.parametrize("d", [0, 1])
    def test_corrupted_label_cell_detected(self, d):
        oracle = DynamicDiH2H(one_way_network(60))
        index = oracle.index
        u = int(index.tree.depth.argmax())
        index.dis[d, u, 0] += 0.5
        with pytest.raises(IntegrityError, match="super-shortcut"):
            verify_index(oracle)

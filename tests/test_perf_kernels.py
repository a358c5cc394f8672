"""Differential tests for the vectorized Equation (*) kernels.

Every kernel in :mod:`repro.perf.kernels` claims bit-identity with a
scalar reference path that stays in the codebase for exactly this
purpose (``H2HIndex.evaluate_entry``, for both directions).
These tests sweep whole indexes and assert the identity exactly —
``==`` on floats, no tolerances — plus a slow-suite microbench gate:
the vectorized row evaluation must not lose to the scalar loop even on
a small network.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import TO, FROM, directed_h2h_indexing
from repro.graph.generators import road_network
from repro.graph import grid_network
from repro.h2h.indexing import h2h_indexing
from repro.perf import kernels


@pytest.fixture(scope="module")
def index():
    return h2h_indexing(grid_network(7, 7, seed=5))


@pytest.fixture(scope="module")
def directed_index():
    base = grid_network(5, 5, seed=9)
    rng_graph = DiRoadNetwork(base.n)
    for u, v, w in base.edges():
        rng_graph.add_arc(u, v, w)
        rng_graph.add_arc(v, u, w * 1.5)
    return directed_h2h_indexing(rng_graph)


class TestStarKernels:
    def test_star_eval_bit_identical_to_evaluate_entry(self, index):
        depth = index.tree.depth
        for u in range(index.n):
            du = int(depth[u])
            if du == 0:
                continue
            depths = np.arange(du, dtype=np.intp)
            values, supports = kernels.star_eval(index, 0, u, depths)
            for da in range(du):
                value, support = index.evaluate_entry(u, da)
                assert values[da] == value  # exact, not approx
                assert supports[da] == support

    def test_candidate_row_matches_scalar_terms(self, index):
        sc, tree = index.sc, index.tree
        for u in range(index.n):
            du = int(tree.depth[u])
            if du == 0:
                continue
            for v in sc.upward(u):
                w = sc.weight(u, v)
                row = kernels.candidate_row(index, 0, u, v, w)
                for da in range(du):
                    assert row[da] == w + index.sd_between(u, v, da)


class TestDirectedKernels:
    def test_directed_fill_matches_evaluate_entry(self, directed_index):
        index = directed_index
        depth = index.tree.depth
        for u in range(index.tree.n):
            du = int(depth[u])
            for direction in (TO, FROM):
                assert index.dis[direction][u, du] == 0.0
                for da in range(du):
                    value, support = index.evaluate_entry(u, da, None, direction)
                    assert index.dis[direction][u, da] == value
                    assert index.sup[direction][u, da] == support

    def test_directed_candidate_row_matches_sd(self, directed_index):
        index = directed_index
        tree = index.tree
        for u in range(tree.n):
            du = int(tree.depth[u])
            if du == 0:
                continue
            for v in index.sc.upward(u):
                for direction in (TO, FROM):
                    row = kernels.candidate_row(index, direction, u, v, 2.5)
                    for da in range(du):
                        assert row[da] == 2.5 + index.sd_between(u, v, da, direction)


@pytest.mark.slow
class TestMicrobenchGate:
    def test_vectorized_row_not_slower_than_scalar(self):
        """Whole-row Equation (*) evaluation must never lose to the
        per-entry scalar loop, even on a small network.  A wall-clock
        ratio, so it runs with the slow suite, not tier-1."""
        index = h2h_indexing(road_network(400, seed=7))
        depth = index.tree.depth
        rows = [
            (u, np.arange(int(depth[u]), dtype=np.intp))
            for u in range(index.n)
            if int(depth[u]) > 0
        ]

        def scalar_pass():
            for u, depths in rows:
                for da in range(len(depths)):
                    index.evaluate_entry(u, int(da))

        def vector_pass():
            for u, depths in rows:
                kernels.star_eval(index, 0, u, depths)

        # Warm both paths, then take best-of-three to shake scheduler noise.
        scalar_pass()
        vector_pass()
        scalar_s = min(
            (lambda t0=perf_counter(): (scalar_pass(), perf_counter() - t0)[1])()
            for _ in range(3)
        )
        vector_s = min(
            (lambda t0=perf_counter(): (vector_pass(), perf_counter() - t0)[1])()
            for _ in range(3)
        )
        # The vectorized pass is typically several times faster; the gate
        # only requires "never slower" with a 25% noise allowance.
        assert vector_s <= scalar_s * 1.25, (
            f"vectorized Equation (*) slower than scalar: "
            f"{vector_s:.4f}s vs {scalar_s:.4f}s"
        )

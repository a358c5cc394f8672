"""Unit tests for the Euler-tour sparse-table LCA oracle."""

from __future__ import annotations

import random

import pytest

from repro.utils.lca import LCAOracle


def brute_lca(parent, u, w):
    """Reference LCA via explicit ancestor chains."""
    anc_u = []
    while u != -1:
        anc_u.append(u)
        u = parent[u]
    seen = set(anc_u)
    while w not in seen:
        w = parent[w]
        if w == -1:
            return None
    return w


class TestSmallTrees:
    def test_single_vertex(self):
        oracle = LCAOracle([-1])
        assert oracle.lca(0, 0) == 0
        assert oracle.depth(0) == 0

    def test_path_tree(self):
        parent = [-1, 0, 1, 2, 3]
        oracle = LCAOracle(parent)
        assert oracle.lca(4, 2) == 2
        assert oracle.lca(0, 4) == 0
        assert oracle.depth(4) == 4

    def test_star_tree(self):
        parent = [-1, 0, 0, 0, 0]
        oracle = LCAOracle(parent)
        assert oracle.lca(1, 2) == 0
        assert oracle.lca(3, 4) == 0
        assert oracle.lca(0, 3) == 0

    def test_binary_tree(self):
        #       0
        #      / \
        #     1   2
        #    / \   \
        #   3   4   5
        parent = [-1, 0, 0, 1, 1, 2]
        oracle = LCAOracle(parent)
        assert oracle.lca(3, 4) == 1
        assert oracle.lca(3, 5) == 0
        assert oracle.lca(4, 2) == 0
        assert oracle.lca(1, 3) == 1

    def test_is_ancestor(self):
        parent = [-1, 0, 0, 1, 1, 2]
        oracle = LCAOracle(parent)
        assert oracle.is_ancestor(0, 5)
        assert oracle.is_ancestor(1, 4)
        assert not oracle.is_ancestor(2, 3)
        assert oracle.is_ancestor(3, 3)

    def test_same_vertex(self):
        oracle = LCAOracle([-1, 0, 0])
        assert oracle.lca(2, 2) == 2


class TestRandomTrees:
    @pytest.mark.parametrize("n,seed", [(30, 0), (100, 1), (257, 2)])
    def test_matches_brute_force(self, n, seed):
        rng = random.Random(seed)
        parent = [-1] + [rng.randrange(i) for i in range(1, n)]
        oracle = LCAOracle(parent)
        for _ in range(200):
            u, w = rng.randrange(n), rng.randrange(n)
            assert oracle.lca(u, w) == brute_lca(parent, u, w)

    def test_depths_match_parent_chain(self):
        rng = random.Random(9)
        n = 80
        parent = [-1] + [rng.randrange(i) for i in range(1, n)]
        oracle = LCAOracle(parent)
        for u in range(n):
            depth = 0
            w = u
            while parent[w] != -1:
                w = parent[w]
                depth += 1
            assert oracle.depth(u) == depth

    def test_depth_and_root_arrays_of_a_forest(self):
        rng = random.Random(4)
        n = 90
        parent = [-1 if i % 30 == 0 else rng.randrange(i - i % 30, i)
                  for i in range(n)]
        oracle = LCAOracle(parent)
        for u in range(n):
            root = u
            while parent[root] != -1:
                root = parent[root]
            assert oracle.roots[u] == root
            assert oracle.depths[u] == oracle.depth(u)


class TestDeepTree:
    def test_long_path_no_recursion_error(self):
        n = 50_000
        parent = [-1] + list(range(n - 1))
        oracle = LCAOracle(parent)
        assert oracle.lca(n - 1, n // 2) == n // 2
        assert oracle.depth(n - 1) == n - 1

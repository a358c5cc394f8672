"""Property-based tests for the persistence and kNN layers."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ch.indexing import ch_indexing
from repro.core.oracle import DijkstraOracle
from repro.h2h.indexing import h2h_indexing
from repro.knn.poi import POIIndex
from repro.persist import load_index, save_index

from test_property_oracles import connected_graphs

common_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPersistenceProperties:
    @common_settings
    @given(connected_graphs(max_vertices=18))
    def test_ch_round_trip_exact(self, graph):
        import tempfile
        import os

        index = ch_indexing(graph)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ch.npz")
            save_index(index, path)
            loaded = load_index(path)
        assert loaded.weight_snapshot() == index.weight_snapshot()
        assert loaded.support_snapshot() == index.support_snapshot()
        loaded.validate()

    @common_settings
    @given(connected_graphs(max_vertices=18))
    def test_h2h_round_trip_exact(self, graph):
        import tempfile
        import os

        index = h2h_indexing(graph)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "h2h.npz")
            save_index(index, path)
            loaded = load_index(path)
        assert np.array_equal(loaded.dis, index.dis)
        assert np.array_equal(loaded.sup, index.sup)
        assert loaded.tree.parent == index.tree.parent


class TestKnnProperties:
    @common_settings
    @given(
        connected_graphs(max_vertices=20),
        st.sets(st.integers(0, 19), min_size=1, max_size=8),
        st.integers(1, 5),
        st.integers(0, 19),
    )
    def test_strategies_always_agree(self, graph, pois, k, source):
        pois = {p % graph.n for p in pois}
        source = source % graph.n
        index = POIIndex(DijkstraOracle(graph))
        for p in pois:
            index.add(p, "poi")
        by_oracle = index.nearest(source, "poi", k=k, strategy="oracle")
        by_search = index.nearest(source, "poi", k=k, strategy="search")
        assert by_oracle == by_search
        distances = [r.distance for r in by_oracle]
        assert distances == sorted(distances)
        assert len(by_oracle) <= min(k, len(pois))

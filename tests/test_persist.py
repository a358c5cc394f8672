"""Round-trip tests for index persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ch.dch import dch_increase
from repro.ch.indexing import ch_indexing
from repro.ch.query import ch_distance
from repro.directed.ch import directed_ch_indexing
from repro.directed.h2h import directed_h2h_indexing
from repro.errors import IntegrityError, ReproError
from repro.graph.generators import grid_network
from repro.h2h.inch2h import inch2h_increase
from repro.h2h.indexing import h2h_indexing
from repro.h2h.query import h2h_distance
from repro.persist import load_ch, load_h2h, save_ch, save_h2h
from repro.workloads.updates import increase_batch, sample_edges

from conftest import one_way_network, random_pairs, rewrite_archive


class TestChRoundTrip:
    def test_weights_survive(self, medium_road, tmp_path):
        index = ch_indexing(medium_road)
        path = tmp_path / "ch.npz"
        save_ch(index, path)
        loaded = load_ch(path)
        assert loaded.weight_snapshot() == index.weight_snapshot()
        assert loaded.support_snapshot() == index.support_snapshot()
        assert loaded.ordering == index.ordering

    def test_vias_survive(self, paper_sc, tmp_path):
        path = tmp_path / "ch.npz"
        save_ch(paper_sc, path)
        loaded = load_ch(path)
        for u, v in paper_sc.shortcuts():
            assert loaded.via(u, v) == paper_sc.via(u, v)

    def test_loaded_index_validates(self, medium_road, tmp_path):
        path = tmp_path / "ch.npz"
        save_ch(ch_indexing(medium_road), path)
        load_ch(path).validate()

    def test_loaded_index_is_maintainable(self, medium_road, tmp_path):
        path = tmp_path / "ch.npz"
        save_ch(ch_indexing(medium_road), path)
        loaded = load_ch(path)
        edges = sample_edges(medium_road, 8, seed=1)
        batch = increase_batch(edges, 2.0)
        dch_increase(loaded, batch)
        medium_road.apply_batch(batch)
        from repro.baselines.dijkstra import dijkstra

        for s, t in random_pairs(medium_road.n, 15, seed=2):
            assert ch_distance(loaded, s, t) == dijkstra(medium_road, s)[t]

    def test_wrong_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, nothing=np.zeros(3))
        with pytest.raises(ReproError):
            load_ch(path)


class TestH2HRoundTrip:
    def test_matrices_survive(self, medium_road, tmp_path):
        index = h2h_indexing(medium_road)
        path = tmp_path / "h2h.npz"
        save_h2h(index, path)
        loaded = load_h2h(path)
        assert np.array_equal(loaded.dis, index.dis)
        assert np.array_equal(loaded.sup, index.sup)
        assert loaded.tree.parent == index.tree.parent

    def test_loaded_index_validates(self, medium_road, tmp_path):
        path = tmp_path / "h2h.npz"
        save_h2h(h2h_indexing(medium_road), path)
        load_h2h(path).validate()

    def test_queries_after_load(self, medium_road, tmp_path):
        index = h2h_indexing(medium_road)
        path = tmp_path / "h2h.npz"
        save_h2h(index, path)
        loaded = load_h2h(path)
        for s, t in random_pairs(medium_road.n, 20, seed=3):
            assert h2h_distance(loaded, s, t) == h2h_distance(index, s, t)

    def test_loaded_index_is_maintainable(self, medium_road, tmp_path):
        path = tmp_path / "h2h.npz"
        save_h2h(h2h_indexing(medium_road), path)
        loaded = load_h2h(path)
        edges = sample_edges(medium_road, 6, seed=4)
        batch = increase_batch(edges, 3.0)
        inch2h_increase(loaded, batch)
        medium_road.apply_batch(batch)
        from repro.baselines.dijkstra import dijkstra

        for s, t in random_pairs(medium_road.n, 15, seed=5):
            assert h2h_distance(loaded, s, t) == dijkstra(medium_road, s)[t]
        loaded.validate()

    def test_save_after_updates_round_trips(self, medium_road, tmp_path):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 6, seed=6)
        inch2h_increase(index, increase_batch(edges, 2.0))
        path = tmp_path / "h2h.npz"
        save_h2h(index, path)
        loaded = load_h2h(path)
        assert np.array_equal(loaded.dis, index.dis)
        loaded.validate()

    def test_ch_archive_rejected_as_h2h(self, paper_sc, tmp_path):
        path = tmp_path / "ch.npz"
        save_ch(paper_sc, path)
        with pytest.raises(ReproError):
            load_h2h(path)

    def test_h2h_archive_loads_as_ch(self, paper_h2h, tmp_path):
        """An H2H archive embeds a complete CH payload."""
        path = tmp_path / "h2h.npz"
        save_h2h(paper_h2h, path)
        loaded_sc = load_ch(path)
        assert loaded_sc.weight_snapshot() == paper_h2h.sc.weight_snapshot()



class TestInconsistentArchives:
    """An archive that passes its checksum but whose columns disagree is
    rejected with :class:`IntegrityError` (a :class:`ReproError`)
    instead of loading: ``zip`` would silently drop the tail of the
    longer columns."""

    @pytest.fixture
    def ch_archive(self, tmp_path):
        path = tmp_path / "ch.npz"
        save_ch(ch_indexing(grid_network(4, 4, seed=2)), path)
        return path

    @pytest.fixture
    def h2h_archive(self, tmp_path):
        path = tmp_path / "h2h.npz"
        save_h2h(h2h_indexing(grid_network(4, 4, seed=2)), path)
        return path

    @pytest.mark.parametrize("column", [
        "sc_u", "sc_v", "sc_w", "sc_sup", "sc_via",
        "edge_u", "edge_v", "edge_w",
    ])
    def test_short_column_rejected(self, ch_archive, column):
        with np.load(ch_archive) as data:
            short = np.array(data[column][:-3])
        rewrite_archive(ch_archive, **{column: short})
        with pytest.raises(IntegrityError, match="disagree in length"):
            load_ch(ch_archive)

    def test_missing_column_rejected(self, ch_archive):
        rewrite_archive(ch_archive, drop=("sc_via",))
        with pytest.raises(IntegrityError, match="missing columns"):
            load_ch(ch_archive)

    def test_short_shortcut_column_rejected_as_h2h(self, h2h_archive):
        with np.load(h2h_archive) as data:
            short = np.array(data["sc_sup"][:-3])
        rewrite_archive(h2h_archive, sc_sup=short)
        with pytest.raises(IntegrityError, match="disagree in length"):
            load_h2h(h2h_archive)

    def test_support_matrix_shape_mismatch_rejected(self, h2h_archive):
        with np.load(h2h_archive) as data:
            n = data["dis"].shape[0]
        rewrite_archive(h2h_archive, sup_matrix=np.ones((n, 1), dtype=np.int32))
        with pytest.raises(IntegrityError, match="support matrix shape"):
            load_h2h(h2h_archive)


class TestArchiveCompatibility:
    """The slot store saves through ``shortcut_records``/``edge_weights``:
    save -> load -> save repeats every column, and a clone of a loaded
    index is independent of it."""

    @staticmethod
    def _columns(path):
        with np.load(path) as data:
            return {key: data[key].copy() for key in data.files}

    def _assert_same_columns(self, first, second):
        a, b = self._columns(first), self._columns(second)
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_ch_save_load_save(self, small_grid, tmp_path):
        index = ch_indexing(small_grid)
        batch = increase_batch(sample_edges(small_grid, 6, seed=3), 2.0)
        dch_increase(index, batch)
        save_ch(index, tmp_path / "a.npz")
        loaded = load_ch(tmp_path / "a.npz")
        save_ch(loaded, tmp_path / "b.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "b.npz")
        clone = loaded.clone()
        dch_increase(clone, increase_batch(sample_edges(small_grid, 6, seed=4), 3.0))
        save_ch(loaded, tmp_path / "c.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "c.npz")
        loaded.validate()

    def test_h2h_save_load_save(self, small_grid, tmp_path):
        index = h2h_indexing(small_grid)
        batch = increase_batch(sample_edges(small_grid, 6, seed=3), 2.0)
        inch2h_increase(index, batch)
        save_h2h(index, tmp_path / "a.npz")
        loaded = load_h2h(tmp_path / "a.npz")
        save_h2h(loaded, tmp_path / "b.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "b.npz")
        clone = loaded.clone()
        inch2h_increase(clone, increase_batch(sample_edges(small_grid, 6, seed=4), 3.0))
        save_h2h(loaded, tmp_path / "c.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "c.npz")
        loaded.validate()


class TestDirectedIndexesRefused:
    """The archive holds one weight per shortcut: a directed store would
    load as an undirected index with wrong answers, so saving one raises
    and writes nothing."""

    @pytest.mark.parametrize(
        "save, build",
        [(save_ch, directed_ch_indexing), (save_h2h, directed_h2h_indexing)],
        ids=["ch", "h2h"],
    )
    def test_save_raises_and_writes_nothing(self, save, build, tmp_path):
        index = build(one_way_network(40))
        with pytest.raises(ReproError, match="directed"):
            save(index, tmp_path / "di.npz")
        assert list(tmp_path.iterdir()) == []

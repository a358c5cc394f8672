"""Round-trip tests for index persistence."""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.ch.dch import dch_increase
from repro.ch.indexing import ch_indexing
from repro.ch.query import ch_distance
from repro.ch.shortcut_graph import ShortcutGraph
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed import DiRoadNetwork, DynamicDiCH, DynamicDiH2H
from repro.directed.dijkstra import directed_dijkstra
from repro.errors import IntegrityError, ReproError
from repro.graph.generators import grid_network
from repro.h2h.index import H2HIndex
from repro.h2h.inch2h import inch2h_increase
from repro.h2h.indexing import h2h_indexing
from repro.h2h.query import h2h_distance
from repro.persist import load_index, load_oracle, save_index
from repro.reliability import ReliableStore, ResilientOracle, verify_index
from repro.workloads.updates import increase_batch, sample_edges

from conftest import one_way_network, random_pairs, rewrite_archive

#: Archives written by the earlier, record-by-record writer.
FIXTURES = Path(__file__).parent / "fixtures"


class TestChRoundTrip:
    def test_weights_survive(self, medium_road, tmp_path):
        index = ch_indexing(medium_road)
        path = tmp_path / "ch.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.weight_snapshot() == index.weight_snapshot()
        assert loaded.support_snapshot() == index.support_snapshot()
        assert loaded.ordering == index.ordering

    def test_vias_survive(self, paper_sc, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(paper_sc, path)
        loaded = load_index(path)
        for u, v in paper_sc.shortcuts():
            assert loaded.via(u, v) == paper_sc.via(u, v)

    def test_loaded_index_validates(self, medium_road, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(medium_road), path)
        load_index(path).validate()

    def test_loaded_index_is_maintainable(self, medium_road, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(medium_road), path)
        loaded = load_index(path)
        edges = sample_edges(medium_road, 8, seed=1)
        batch = increase_batch(edges, 2.0)
        dch_increase(loaded, batch)
        medium_road.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 15, seed=2):
            assert ch_distance(loaded, s, t) == dijkstra(medium_road, s)[t]

    def test_wrong_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, nothing=np.zeros(3))
        with pytest.raises(ReproError):
            load_index(path)


class TestH2HRoundTrip:
    def test_matrices_survive(self, medium_road, tmp_path):
        index = h2h_indexing(medium_road)
        path = tmp_path / "h2h.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(loaded.dis, index.dis)
        assert np.array_equal(loaded.sup, index.sup)
        assert loaded.tree.parent == index.tree.parent

    def test_loaded_index_validates(self, medium_road, tmp_path):
        path = tmp_path / "h2h.npz"
        save_index(h2h_indexing(medium_road), path)
        load_index(path).validate()

    def test_queries_after_load(self, medium_road, tmp_path):
        index = h2h_indexing(medium_road)
        path = tmp_path / "h2h.npz"
        save_index(index, path)
        loaded = load_index(path)
        for s, t in random_pairs(medium_road.n, 20, seed=3):
            assert h2h_distance(loaded, s, t) == h2h_distance(index, s, t)

    def test_loaded_index_is_maintainable(self, medium_road, tmp_path):
        path = tmp_path / "h2h.npz"
        save_index(h2h_indexing(medium_road), path)
        loaded = load_index(path)
        edges = sample_edges(medium_road, 6, seed=4)
        batch = increase_batch(edges, 3.0)
        inch2h_increase(loaded, batch)
        medium_road.apply_batch(batch)
        for s, t in random_pairs(medium_road.n, 15, seed=5):
            assert h2h_distance(loaded, s, t) == dijkstra(medium_road, s)[t]
        loaded.validate()

    def test_save_after_updates_round_trips(self, medium_road, tmp_path):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 6, seed=6)
        inch2h_increase(index, increase_batch(edges, 2.0))
        path = tmp_path / "h2h.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(loaded.dis, index.dis)
        loaded.validate()

    def test_ch_archive_rejected_as_h2h(self, paper_sc, tmp_path):
        """A CH archive loads as the CH index it holds, never as H2H."""
        path = tmp_path / "ch.npz"
        save_index(paper_sc, path)
        assert isinstance(load_index(path), ShortcutGraph)
        assert isinstance(load_oracle(path), DynamicCH)
        assert not isinstance(load_oracle(path), DynamicH2H)

    def test_h2h_archive_loads_as_ch(self, paper_h2h, tmp_path):
        """An H2H archive embeds a complete CH payload."""
        path = tmp_path / "h2h.npz"
        save_index(paper_h2h, path)
        loaded_sc = load_index(path).sc
        assert loaded_sc.weight_snapshot() == paper_h2h.sc.weight_snapshot()



class TestInconsistentArchives:
    """An archive that passes its checksum but whose columns disagree is
    rejected with :class:`IntegrityError` (a :class:`ReproError`)
    instead of loading: ``zip`` would silently drop the tail of the
    longer columns."""

    @pytest.fixture
    def ch_archive(self, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(grid_network(4, 4, seed=2)), path)
        return path

    @pytest.fixture
    def h2h_archive(self, tmp_path):
        path = tmp_path / "h2h.npz"
        save_index(h2h_indexing(grid_network(4, 4, seed=2)), path)
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
            load_index(ch_archive)

    def test_missing_column_rejected(self, ch_archive):
        rewrite_archive(ch_archive, drop=("sc_via",))
        with pytest.raises(IntegrityError, match="missing columns"):
            load_index(ch_archive)

    def test_short_shortcut_column_rejected_as_h2h(self, h2h_archive):
        with np.load(h2h_archive) as data:
            short = np.array(data["sc_sup"][:-3])
        rewrite_archive(h2h_archive, sc_sup=short)
        with pytest.raises(IntegrityError, match="disagree in length"):
            load_index(h2h_archive)

    def test_support_matrix_shape_mismatch_rejected(self, h2h_archive):
        with np.load(h2h_archive) as data:
            n = data["dis"].shape[0]
        rewrite_archive(h2h_archive, sup_matrix=np.ones((n, 1), dtype=np.int32))
        with pytest.raises(IntegrityError, match="support matrix shape"):
            load_index(h2h_archive)


class TestArchiveCompatibility:
    """The archive is written straight from the slot store's arrays:
    save -> load -> save repeats every column, a clone of a loaded
    index is independent of it, and an archive of the earlier
    record-by-record writer (``tests/fixtures``) loads through the one
    reader and saves back to the same columns."""

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
        save_index(index, tmp_path / "a.npz")
        loaded = load_index(tmp_path / "a.npz")
        save_index(loaded, tmp_path / "b.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "b.npz")
        clone = loaded.clone()
        dch_increase(clone, increase_batch(sample_edges(small_grid, 6, seed=4), 3.0))
        save_index(loaded, tmp_path / "c.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "c.npz")
        loaded.validate()

    def test_h2h_save_load_save(self, small_grid, tmp_path):
        index = h2h_indexing(small_grid)
        batch = increase_batch(sample_edges(small_grid, 6, seed=3), 2.0)
        inch2h_increase(index, batch)
        save_index(index, tmp_path / "a.npz")
        loaded = load_index(tmp_path / "a.npz")
        save_index(loaded, tmp_path / "b.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "b.npz")
        clone = loaded.clone()
        inch2h_increase(clone, increase_batch(sample_edges(small_grid, 6, seed=4), 3.0))
        save_index(loaded, tmp_path / "c.npz")
        self._assert_same_columns(tmp_path / "a.npz", tmp_path / "c.npz")
        loaded.validate()


    @pytest.mark.parametrize("facade", [DynamicCH, DynamicH2H], ids=["ch", "h2h"])
    def test_archive_of_the_earlier_writer(self, facade, tmp_path):
        """The fixtures hold ``grid_network(4, 4, seed=2)`` after one
        mixed batch, saved by the writer that built the columns from
        per-shortcut records."""
        kind = "h2h" if facade is DynamicH2H else "ch"
        fixture = FIXTURES / f"grid4x4-{kind}.npz"
        oracle = facade(grid_network(4, 4, seed=2))
        graph = oracle.graph
        oracle.apply([((0, 1), graph.weight(0, 1) * 3.0),
                      ((5, 6), graph.weight(5, 6) / 2.0)])
        loaded = load_oracle(fixture)
        assert type(loaded) is facade
        assert loaded.graph == oracle.graph
        assert_same_index(loaded.index, oracle.index)
        save_index(loaded.index, tmp_path / "again.npz")
        self._assert_same_columns(fixture, tmp_path / "again.npz")


def assert_same_index(a, b):
    """Slot arrays (and labels, for H2H) byte-equal, ordering equal."""
    sc_a, sc_b = getattr(a, "sc", a), getattr(b, "sc", b)
    assert sc_a.ordering == sc_b.ordering
    for x, y in zip(sc_a.slot_arrays(), sc_b.slot_arrays()):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    if isinstance(a, H2HIndex):
        for x, y in ((a.dis, b.dis), (a.sup, b.sup)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def mixed_batches(graph, count, seed):
    """*count* batches over the arcs of a directed *graph*: each scales
    six distinct arcs by 2, 0.5 or 3, a closed road (``inf``) among
    them now and then."""
    rng = random.Random(seed)
    arcs = sorted((u, v) for u, v, _ in graph.arcs())
    batches = []
    for _ in range(count):
        batch = []
        for u, v in rng.sample(arcs, 6):
            factor = rng.choice([2.0, 0.5, 3.0, math.inf])
            batch.append(((u, v), graph.weight(u, v) * factor))
        batches.append(batch)
        graph = graph.copy()
        for (u, v), w in batch:
            graph.set_weight(u, v, w)
    return batches


@pytest.fixture(params=[DynamicDiCH, DynamicDiH2H], ids=["ch", "h2h"])
def directed_oracle(request):
    """A directed facade over a one-way network after three mixed
    batches."""
    oracle = request.param(one_way_network(120))
    for batch in mixed_batches(oracle.graph, 3, seed=8):
        oracle.apply(batch)
    return oracle


class TestDirectedRoundTrip:
    """A directed (``D = 2``) index saves both weight rows and both label
    matrices and loads back byte-equal, under its own format number."""

    def test_round_trip(self, directed_oracle, tmp_path):
        path = tmp_path / "di.npz"
        save_index(directed_oracle.index, path)
        loaded = load_oracle(path)
        assert type(loaded) is type(directed_oracle)
        assert loaded.graph == directed_oracle.graph
        assert_same_index(loaded.index, directed_oracle.index)
        pairs = random_pairs(loaded.graph.n, 200, seed=9)
        assert [loaded.distance(s, t) for s, t in pairs] == [
            directed_oracle.distance(s, t) for s, t in pairs
        ]
        verify_index(loaded)

    def test_loaded_index_is_maintainable(self, directed_oracle, tmp_path):
        path = tmp_path / "di.npz"
        save_index(directed_oracle.index, path)
        loaded = load_oracle(path)
        for batch in mixed_batches(loaded.graph, 2, seed=10):
            loaded.apply(batch)
            directed_oracle.apply(batch)
        assert_same_index(loaded.index, directed_oracle.index)
        graph = loaded.graph
        for s in range(0, graph.n, 17):
            truth = directed_dijkstra(graph, s)
            assert [loaded.distance(s, t) for t in range(graph.n)] == truth

    def test_format_number_is_two(self, directed_oracle, tmp_path):
        """A reader of undirected archives accepts format 1 only, so it
        refuses this archive instead of loading one row of it."""
        path = tmp_path / "di.npz"
        save_index(directed_oracle.index, path)
        with np.load(path) as data:
            formats = {key: data[key].tolist() for key in data.files
                       if key.endswith("_format")}
        expected = {"ch_format": [2]}
        if isinstance(directed_oracle, DynamicDiH2H):
            expected["h2h_format"] = [2]
        assert formats == expected

    def test_relabelled_as_undirected_rejected(self, directed_oracle, tmp_path):
        path = tmp_path / "di.npz"
        save_index(directed_oracle.index, path)
        rewrite_archive(path, ch_format=np.array([1]), h2h_format=np.array([1]))
        with pytest.raises(IntegrityError, match="one per arc id"):
            load_index(path)

    def test_reversed_record_rejected(self, directed_oracle, tmp_path):
        """Row ``FROM``'s first record turned round names a row ``TO``
        arc a second time: the arc ids are no permutation."""
        path = tmp_path / "di.npz"
        save_index(directed_oracle.index, path)
        index = directed_oracle.index
        slots = getattr(index, "sc", index).num_shortcuts
        with np.load(path) as data:
            u, v = np.array(data["sc_u"]), np.array(data["sc_v"])
        u[slots], v[slots] = v[slots], u[slots]
        rewrite_archive(path, sc_u=u, sc_v=v)
        with pytest.raises(IntegrityError, match="one per arc id"):
            load_index(path)

    def test_undirected_relabelled_as_directed_rejected(self, small_grid, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(small_grid), path)
        rewrite_archive(path, ch_format=np.array([2]))
        with pytest.raises(IntegrityError):
            load_index(path)

    def test_unknown_pair_rejected(self, small_grid, tmp_path):
        path = tmp_path / "ch.npz"
        index = ch_indexing(small_grid)
        save_index(index, path)
        with np.load(path) as data:
            v = np.array(data["edge_v"])
        u0 = int(np.load(path)["edge_u"][0])
        v[0] = next(x for x in range(index.n)
                    if x != u0 and not index.has_shortcut(u0, x))
        rewrite_archive(path, edge_v=v)
        with pytest.raises(IntegrityError, match="not a shortcut"):
            load_index(path)


FACADES = [DynamicCH, DynamicH2H, DynamicDiCH, DynamicDiH2H]
FACADE_IDS = ["ch", "h2h", "di-ch", "di-h2h"]


def truth(graph, s):
    """Dijkstra distances from *s* on an undirected or directed graph."""
    if isinstance(graph, DiRoadNetwork):
        return directed_dijkstra(graph, s)
    return dijkstra(graph, s)


@pytest.mark.parametrize("facade", FACADES, ids=FACADE_IDS)
def test_closed_road_survives_verification_and_recovery(facade, tmp_path):
    """A road closed with ``inf`` stays in the graph; verification,
    checkpoint and recovery keep it, and a journaled batch reopens it."""
    graph = grid_network(3, 3, seed=5)
    if facade in (DynamicDiCH, DynamicDiH2H):
        graph = DiRoadNetwork.from_undirected(graph, asymmetry=2.0)
    oracle = facade(graph)
    old = oracle.graph.weight(0, 1)
    oracle.apply([((0, 1), math.inf)])
    verify_index(oracle)
    store = ReliableStore(tmp_path / "store")
    store.checkpoint(oracle)
    closed = store.recover().oracle
    assert closed.graph == oracle.graph
    assert closed.graph.weight(0, 1) == math.inf
    verify_index(closed)
    reopen = [((0, 1), old)]
    store.log(reopen)
    oracle.apply(reopen)
    recovered = store.recover().oracle
    assert recovered.graph == oracle.graph
    assert_same_index(recovered.index, oracle.index)
    verify_index(recovered)
    for s in range(recovered.graph.n):
        expected = truth(recovered.graph, s)
        assert [recovered.distance(s, t) for t in range(recovered.graph.n)] == expected


@pytest.mark.parametrize("facade", [DynamicDiCH, DynamicDiH2H], ids=["ch", "h2h"])
def test_resilient_oracle_checkpoints_a_directed_index(facade, tmp_path):
    """A :class:`ResilientOracle` with a store journals a directed
    oracle's batches and checkpoints it on a rebuild; the store then
    recovers it exactly."""
    primary = facade(one_way_network(80))
    store = ReliableStore(tmp_path / "store")
    store.checkpoint(primary)
    resilient = ResilientOracle(primary, store=store)
    first, second, third = mixed_batches(primary.graph, 3, seed=11)
    resilient.apply(first)
    resilient.apply(second)
    assert len(store.wal.replay()) == 2
    resilient.rebuild()
    assert store.wal.replay() == []
    resilient.apply(third)
    assert resilient.check_integrity()
    recovered = store.recover().oracle
    assert recovered.graph == primary.graph
    assert_same_index(recovered.index, primary.index)
    for s in range(0, recovered.graph.n, 7):
        expected = truth(recovered.graph, s)
        assert [recovered.distance(s, t) for t in range(recovered.graph.n)] == expected

"""Tests for the directed dynamic oracle facades."""

from __future__ import annotations

import random

import pytest

import repro.directed.ch as directed_ch_module
import repro.directed.h2h as directed_h2h_module
from repro.directed.ch import directed_ch_indexing
from repro.directed.dijkstra import directed_distance
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_indexing
from repro.errors import IndexError_, UpdateError
from repro.graph.generators import road_network
from repro.utils.counters import OpCounter


@pytest.fixture
def city():
    base = road_network(90, seed=23)
    rng = random.Random(7)
    digraph = DiRoadNetwork(base.n)
    for u, v, w in base.edges():
        digraph.add_arc(u, v, w)
        if rng.random() < 0.7:
            digraph.add_arc(v, u, w * rng.choice([1.0, 2.0]))
    return digraph


@pytest.fixture(params=["ch", "h2h"])
def oracle(request, city):
    cls = DynamicDiCH if request.param == "ch" else DynamicDiH2H
    return cls(city.copy())


class TestFacades:
    def test_static_queries(self, oracle, city):
        rng = random.Random(1)
        for _ in range(25):
            s, t = rng.randrange(city.n), rng.randrange(city.n)
            assert oracle.distance(s, t) == directed_distance(city, s, t)

    def test_mixed_batch_apply(self, oracle, city):
        rng = random.Random(2)
        arcs = list(city.arcs())
        sample = rng.sample(arcs, 8)
        batch = [((u, v), w * rng.choice([0.5, 2.0])) for u, v, w in sample]
        report = oracle.apply(batch)
        assert report.increases + report.decreases == len(batch)
        reference = city.copy()
        for (u, v), w in batch:
            reference.set_weight(u, v, w)
        for _ in range(20):
            s, t = rng.randrange(city.n), rng.randrange(city.n)
            assert oracle.distance(s, t) == directed_distance(reference, s, t)

    def test_duplicate_arc_rejected(self, oracle, city):
        u, v, w = next(iter(city.arcs()))
        with pytest.raises(UpdateError):
            oracle.apply([((u, v), w * 2), ((u, v), w * 3)])

    def test_noop_batch(self, oracle, city):
        u, v, w = next(iter(city.arcs()))
        report = oracle.apply([((u, v), w)])
        assert report.increases == 0 and report.decreases == 0

    def test_rebuild_preserves_answers(self, oracle, city):
        rng = random.Random(3)
        pairs = [(rng.randrange(city.n), rng.randrange(city.n))
                 for _ in range(10)]
        before = [oracle.distance(s, t) for s, t in pairs]
        oracle.rebuild()
        assert [oracle.distance(s, t) for s, t in pairs] == before

    def test_graph_kept_in_sync(self, oracle, city):
        u, v, w = next(iter(city.arcs()))
        oracle.apply([((u, v), w * 2)])
        assert oracle.graph.weight(u, v) == w * 2

    def test_counter_accumulates(self, oracle, city):
        base_ops = oracle.counter.total()
        u, v, w = next(iter(city.arcs()))
        oracle.apply([((u, v), w * 2)])
        assert oracle.counter.total() > base_ops

    def test_indexes_stay_valid_over_rounds(self, oracle, city):
        rng = random.Random(4)
        arcs = list(city.arcs())
        for _ in range(3):
            sample = rng.sample(arcs, 5)
            ups = [((u, v), oracle.graph.weight(u, v) * 2.0)
                   for u, v, _ in sample]
            oracle.apply(ups)
            downs = [((u, v), oracle.graph.weight(u, v) / 2.0)
                     for (u, v), _ in ups]
            oracle.apply(downs)
        oracle.index.validate()

    def test_clone_leaves_original_unchanged(self, oracle, city):
        # Clones share the skeleton and the arc flags; a mixed batch on
        # the clone must leave the original's phi, phi_G and supports in
        # both directions, and its labels, bit-identical.
        def state(index):
            sc = getattr(index, "sc", index)
            labels = (index.dis, index.sup) if sc is not index else ()
            return [view.tobytes() for view in (*sc.slot_views(), *labels)]

        before = state(oracle.index)
        clone = oracle.clone()
        shared = getattr(oracle.index, "sc", oracle.index).structure
        assert getattr(clone.index, "sc", clone.index).structure is shared
        sample = random.Random(5).sample(list(city.arcs()), 12)
        batch = [((u, v), w * 3.0) for u, v, w in sample[:6]]
        batch += [((u, v), w * 0.25) for u, v, w in sample[6:]]
        report = clone.apply(batch)
        assert report.increases == report.decreases == 6
        assert state(clone.index) != before
        assert state(oracle.index) == before
        assert all(oracle.graph.weight(u, v) == w for u, v, w in sample)
        oracle.index.validate()
        clone.index.validate()


def _counted(build):
    """``(result, OpCounter dict)`` of ``build(counter)``."""
    ops = OpCounter()
    return build(ops), ops.as_dict()


def _state(sc):
    """Bytes of the arc flags, ``phi``, ``phi_G`` and the supports."""
    return [sc._arc.tobytes()] + [view.tobytes() for view in sc.slot_views()]


class TestRebuildKeepsStructure:
    """The skeleton, the order and the tree are weight independent, so a
    directed rebuild reweighs the ones the index holds: the same bytes and
    op counts as a fresh build in the same order, with no elimination and
    no new tree."""

    @staticmethod
    def _forbid_restructuring(monkeypatch):
        def not_called(*args):
            raise AssertionError("rebuild() rebuilt weight-independent structure")

        monkeypatch.setattr(directed_ch_module, "eliminated_structure", not_called)
        monkeypatch.setattr(directed_h2h_module, "TreeDecomposition", not_called)

    @staticmethod
    def _updated(cls, city):
        oracle = cls(city.copy())
        sample = random.Random(8).sample(list(city.arcs()), 10)
        oracle.apply([((u, v), w * 2.0) for u, v, w in sample[:5]])
        oracle.apply([((u, v), w * 0.5) for u, v, w in sample[5:]])
        return oracle

    def test_ch_rebuild(self, city, monkeypatch):
        oracle = self._updated(DynamicDiCH, city)
        structure = oracle.index.structure
        fresh, fresh_ops = _counted(
            lambda ops: directed_ch_indexing(
                oracle.graph.copy(), oracle.index.ordering, ops
            )
        )
        self._forbid_restructuring(monkeypatch)
        oracle.counter = OpCounter()
        oracle.rebuild()
        assert oracle.index.structure is structure
        assert _state(oracle.index) == _state(fresh)
        assert oracle.counter.as_dict() == fresh_ops
        oracle.index.validate()

    def test_h2h_rebuild(self, city, monkeypatch):
        oracle = self._updated(DynamicDiH2H, city)
        tree = oracle.index.tree
        fresh, fresh_ops = _counted(
            lambda ops: directed_h2h_indexing(
                oracle.graph.copy(), oracle.index.sc.ordering, ops
            )
        )
        self._forbid_restructuring(monkeypatch)
        oracle.counter = OpCounter()
        oracle.rebuild()
        assert oracle.index.tree is tree
        assert _state(oracle.index.sc) == _state(fresh.sc)
        for name in ("dis", "sup"):
            x, y = getattr(oracle.index, name), getattr(fresh, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert oracle.counter.as_dict() == fresh_ops
        oracle.index.validate()

    def test_arc_missing_from_the_skeleton_is_rejected(self, city):
        """An arc whose edge the skeleton lacks fails loudly instead of
        weighing some other slot."""
        oracle = DynamicDiCH(city.copy())
        st = oracle.index.structure
        held = {(int(a), int(b)) for a, b in zip(st.low, st.high)}
        tail, head = next(
            (a, b) for a in range(city.n) for b in range(a + 1, city.n)
            if (a, b) not in held and (b, a) not in held
        )
        oracle.graph.add_arc(tail, head, 1.0)
        with pytest.raises(IndexError_):
            oracle.rebuild()

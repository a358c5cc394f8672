"""Tests for the directed dynamic oracle facades, and the facade
contract all four oracles share through one base class."""

from __future__ import annotations

import math
import random

import pytest

import repro.directed.ch as directed_ch_module
import repro.directed.h2h as directed_h2h_module
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.ch import directed_ch_indexing
from repro.directed.dijkstra import directed_distance
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import directed_h2h_indexing
from repro.errors import GraphError, IndexError_, UpdateError
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


#: The four facades on their one base class; the unmarked ids are the
#: directed ones this module is about.
FACADES = {
    "ch": DynamicDiCH,
    "h2h": DynamicDiH2H,
    "ch-undirected": DynamicCH,
    "h2h-undirected": DynamicH2H,
}


@pytest.fixture(params=["ch", "h2h"])
def oracle(request, city):
    return FACADES[request.param](city.copy())


@pytest.fixture(params=list(FACADES))
def facade(request, city):
    """Each facade over ``city`` (directed) or its undirected base."""
    cls = FACADES[request.param]
    if cls in (DynamicDiCH, DynamicDiH2H):
        return cls(city.copy())
    return cls(road_network(90, seed=23))


def links(graph):
    """Every arc (edge, on an undirected graph) as ``(u, v, weight)``."""
    return list(graph.arcs() if hasattr(graph, "arcs") else graph.edges())


def index_bytes(index):
    """The bytes of an index's slot arrays and, for H2H, its labels."""
    sc = getattr(index, "sc", index)
    labels = (index.dis, index.sup) if sc is not index else ()
    return [view.tobytes() for view in (*sc.slot_views(), *labels)]


def unknown_link(graph):
    """A pair ``(0, b)`` that is no arc (edge) of *graph*."""
    has = graph.has_arc if hasattr(graph, "arcs") else graph.has_edge
    return 0, next(b for b in range(1, graph.n) if not has(0, b))


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

    def test_duplicate_arc_rejected(self, facade):
        u, v, w = links(facade.graph)[0]
        with pytest.raises(UpdateError):
            facade.apply([((u, v), w * 2), ((u, v), w * 3)])

    def test_noop_batch(self, facade):
        u, v, w = links(facade.graph)[0]
        report = facade.apply([((u, v), w)])
        assert report.increases == 0 and report.decreases == 0
        assert report.changed_shortcuts == []
        assert len(report.changed_super_shortcuts) == 0

    @pytest.mark.parametrize(
        "bad", ["negative", "nan", "unknown", "duplicate"]
    )
    def test_rejected_batch_changes_nothing(self, facade, bad):
        """A batch that fails its check raises before any write: a valid
        increase and decrease ride in front of the bad update, and the
        graph weights, the index bytes and the answers stay as they were."""
        graph = facade.graph
        (u1, v1, w1), (u2, v2, w2), (u3, v3, _w3) = links(graph)[:3]
        batch = [((u1, v1), w1 * 4.0), ((u2, v2), w2 * 0.5)]
        update, error = {
            "negative": (((u3, v3), -1.0), GraphError),
            "nan": (((u3, v3), math.nan), GraphError),
            "unknown": ((unknown_link(graph), 1.0), GraphError),
            "duplicate": (((u2, v2), w2 * 0.25), UpdateError),
        }[bad]
        batch.append(update)
        rng = random.Random(6)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n))
                 for _ in range(30)]
        weights = links(graph)
        state = index_bytes(facade.index)
        answers = [facade.distance(s, t) for s, t in pairs]
        with pytest.raises(error):
            facade.apply(batch)
        assert links(facade.graph) == weights
        assert index_bytes(facade.index) == state
        assert [facade.distance(s, t) for s, t in pairs] == answers

    def test_rebuild_preserves_answers(self, oracle, city):
        rng = random.Random(3)
        pairs = [(rng.randrange(city.n), rng.randrange(city.n))
                 for _ in range(10)]
        before = [oracle.distance(s, t) for s, t in pairs]
        oracle.rebuild()
        assert [oracle.distance(s, t) for s, t in pairs] == before

    def test_graph_kept_in_sync(self, facade):
        u, v, w = links(facade.graph)[0]
        facade.apply([((u, v), w * 2)])
        assert facade.graph.weight(u, v) == w * 2

    def test_counter_accumulates(self, facade):
        base_ops = facade.counter.total()
        u, v, w = links(facade.graph)[0]
        facade.apply([((u, v), w * 2)])
        assert facade.counter.total() > base_ops

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

    def test_clone_leaves_original_unchanged(self, facade):
        # Clones share the structure (and the tree, for H2H); a mixed
        # batch on the clone must leave the original's slot arrays, in
        # both directions on a directed store, and its labels
        # bit-identical.
        before = index_bytes(facade.index)
        clone = facade.clone()
        assert type(clone) is type(facade)
        shared = getattr(facade.index, "sc", facade.index).structure
        assert getattr(clone.index, "sc", clone.index).structure is shared
        assert getattr(clone.index, "tree", None) is getattr(
            facade.index, "tree", None
        )
        sample = random.Random(5).sample(links(facade.graph), 12)
        batch = [((u, v), w * 3.0) for u, v, w in sample[:6]]
        batch += [((u, v), w * 0.25) for u, v, w in sample[6:]]
        report = clone.apply(batch)
        assert report.increases == report.decreases == 6
        assert index_bytes(clone.index) != before
        assert index_bytes(facade.index) == before
        assert all(facade.graph.weight(u, v) == w for u, v, w in sample)
        facade.index.validate()
        clone.index.validate()


def _counted(build):
    """``(result, OpCounter dict)`` of ``build(counter)``."""
    ops = OpCounter()
    return build(ops), ops.as_dict()


def _state(sc):
    """Bytes of the arc flags, ``phi``, ``phi_G``, the supports and the
    witnesses."""
    return [sc._edge.tobytes()] + [view.tobytes() for view in sc.slot_views()]


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

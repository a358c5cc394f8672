"""Coalesced batches are state-identical to sequential application.

The claim in :mod:`repro.perf.coalesce` is that applying the per-edge
*net effect* of a raw update stream reaches exactly the state a
one-publish-per-update application reaches: the Equation (<>)/(*)
fixpoints and exact support counts are functions of the final weights
alone.  Hypothesis drives random repeated-edge streams against all four
dynamic facades (CH + H2H, undirected + directed) and compares every
piece of index state except the ``via`` witness, which is arbitrary on
ties in both paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.directed.h2h import TO, FROM
from repro.errors import UpdateError
from repro.graph import grid_network
from repro.perf.coalesce import coalesce_updates
from repro.reliability.transactions import cow_apply
from repro.serve.server import DistanceServer

SETTINGS = settings(max_examples=25, deadline=None)


def _base_graph():
    return grid_network(4, 4, seed=11)


def _base_digraph():
    base = grid_network(3, 3, seed=13)
    graph = DiRoadNetwork(base.n)
    for u, v, w in base.edges():
        graph.add_arc(u, v, w)
        graph.add_arc(v, u, w * 1.25)
    return graph


_EDGES = [(u, v) for u, v, _w in _base_graph().edges()]
_ARCS = [(u, v) for u, v, _w in _base_digraph().arcs()]

_BASE = {
    "ch": DynamicCH(_base_graph()),
    "h2h": DynamicH2H(_base_graph()),
    "dich": DynamicDiCH(_base_digraph()),
    "dih2h": DynamicDiH2H(_base_digraph()),
}

_WEIGHTS = st.floats(
    min_value=0.25, max_value=8.0, allow_nan=False, allow_infinity=False
)


def _stream_strategy(edges):
    return st.lists(
        st.tuples(st.sampled_from(edges), _WEIGHTS), min_size=1, max_size=8
    ).map(lambda raw: [(edge, w) for edge, w in raw])


def _assert_same_sc(sc_a, sc_b) -> None:
    """Undirected ShortcutGraph state equality, ``via`` excluded."""
    assert sc_a.weight_snapshot() == sc_b.weight_snapshot()
    assert sc_a.support_snapshot() == sc_b.support_snapshot()
    assert sc_a.edge_weights() == sc_b.edge_weights()


def _assert_same_dsc(sc_a, sc_b) -> None:
    """Directed store state equality: ``phi``, ``phi_G`` and supports of
    clones of one index, compared as bytes; ``via`` excluded, as on the
    undirected store (a witness depends on the order of the updates)."""
    for view_a, view_b in zip(sc_a.slot_views()[:3], sc_b.slot_views()[:3]):
        assert view_a.tobytes() == view_b.tobytes()


def _assert_same_state(kind: str, seq, bat) -> None:
    if kind == "ch":
        _assert_same_sc(seq.index, bat.index)
    elif kind == "h2h":
        _assert_same_sc(seq.index.sc, bat.index.sc)
        assert np.array_equal(seq.index.dis, bat.index.dis)
        assert np.array_equal(seq.index.sup, bat.index.sup)
    elif kind == "dich":
        _assert_same_dsc(seq.index, bat.index)
    else:
        _assert_same_dsc(seq.index.sc, bat.index.sc)
        for direction in (TO, FROM):
            assert np.array_equal(
                seq.index.dis[direction], bat.index.dis[direction]
            )
            assert np.array_equal(
                seq.index.sup[direction], bat.index.sup[direction]
            )


def _check(kind: str, stream) -> None:
    seq = _BASE[kind].clone()
    for update in stream:
        seq.apply([update])
    bat = _BASE[kind].clone()
    bat.apply(stream, coalesce=True)
    edges = _ARCS if kind.startswith("di") else _EDGES
    for u, v in edges:
        assert seq.graph.weight(u, v) == bat.graph.weight(u, v)
    _assert_same_state(kind, seq, bat)


class TestCoalescedEqualsSequential:
    @SETTINGS
    @given(stream=_stream_strategy(_EDGES))
    def test_dynamic_ch(self, stream):
        _check("ch", stream)

    @SETTINGS
    @given(stream=_stream_strategy(_EDGES))
    def test_dynamic_h2h(self, stream):
        _check("h2h", stream)

    @SETTINGS
    @given(stream=_stream_strategy(_ARCS))
    def test_dynamic_dich(self, stream):
        _check("dich", stream)

    @SETTINGS
    @given(stream=_stream_strategy(_ARCS))
    def test_dynamic_dih2h(self, stream):
        _check("dih2h", stream)


class TestCoalesceUpdates:
    def test_last_write_wins(self):
        weights = {(0, 1): 2.0, (1, 2): 3.0}
        batch = coalesce_updates(
            [((0, 1), 5.0), ((1, 2), 1.0), ((0, 1), 7.0)],
            lambda u, v: weights[(min(u, v), max(u, v))],
        )
        assert batch.updates == [((0, 1), 7.0), ((1, 2), 1.0)]
        assert batch.increases == [((0, 1), 7.0)]
        assert batch.decreases == [((1, 2), 1.0)]
        assert batch.superseded == 1
        assert batch.dropped == 0

    def test_noop_net_change_dropped(self):
        weights = {(0, 1): 2.0}
        batch = coalesce_updates(
            [((0, 1), 9.0), ((0, 1), 2.0)],
            lambda u, v: weights[(min(u, v), max(u, v))],
        )
        assert batch.updates == []
        assert batch.superseded == 1
        assert batch.dropped == 1

    def test_undirected_canonicalizes_endpoint_order(self):
        weights = {(0, 1): 2.0}
        batch = coalesce_updates(
            [((0, 1), 5.0), ((1, 0), 3.0)],
            lambda u, v: weights[(min(u, v), max(u, v))],
        )
        # Both spellings name one edge: the later report wins.
        assert batch.updates == [((1, 0), 3.0)]
        assert batch.superseded == 1

    def test_directed_keeps_arcs_separate(self):
        weights = {(0, 1): 2.0, (1, 0): 2.0}
        batch = coalesce_updates(
            [((0, 1), 5.0), ((1, 0), 3.0)],
            lambda u, v: weights[(u, v)],
            directed=True,
        )
        assert batch.updates == [((0, 1), 5.0), ((1, 0), 3.0)]
        assert batch.superseded == 0

    def test_len_counts_surviving_updates(self):
        batch = coalesce_updates([((0, 1), 5.0)], lambda u, v: 2.0)
        assert len(batch) == 1


class TestCoalesceThroughLayers:
    def test_cow_apply_rejects_duplicates_without_coalesce(self):
        oracle = _BASE["h2h"].clone()
        edge = _EDGES[0]
        w = oracle.graph.weight(*edge)
        stream = [(edge, w * 2), (edge, w * 3)]
        with pytest.raises(UpdateError):
            cow_apply(oracle, stream)

    def test_cow_apply_coalesce_accepts_duplicates(self):
        oracle = _BASE["h2h"].clone()
        edge = _EDGES[0]
        w = oracle.graph.weight(*edge)
        stream = [(edge, w * 2), (edge, w * 3)]
        next_oracle, _report = cow_apply(oracle, stream, coalesce=True)
        assert next_oracle.graph.weight(*edge) == w * 3
        assert oracle.graph.weight(*edge) == w  # original untouched
        next_oracle.index.validate()

    def test_cow_apply_coalesces_directed_per_arc(self):
        oracle = _BASE["dich"].clone()
        (u, v) = _ARCS[0]
        w_uv = oracle.graph.weight(u, v)
        w_vu = oracle.graph.weight(v, u)
        next_oracle, _report = cow_apply(
            oracle, [((u, v), w_uv * 2), ((v, u), w_vu * 3)], coalesce=True
        )
        assert next_oracle.graph.weight(u, v) == w_uv * 2
        assert next_oracle.graph.weight(v, u) == w_vu * 3

    def test_server_apply_defaults_to_coalescing(self):
        with DistanceServer(_BASE["ch"].clone(), workers=1) as server:
            edge = _EDGES[0]
            w = server.snapshot().graph.weight(*edge)
            report = server.apply([(edge, w * 2), (edge, w * 4)])
            assert server.snapshot().graph.weight(*edge) == w * 4
            assert report.epoch >= 1

    def test_facade_report_carries_coalescing_counters(self):
        oracle = _BASE["ch"].clone()
        edge = _EDGES[0]
        w = oracle.graph.weight(*edge)
        report = oracle.apply(
            [(edge, w * 2), (edge, w * 3), (edge, w)], coalesce=True
        )
        assert report.superseded == 2
        assert report.dropped == 1

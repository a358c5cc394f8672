"""Transactional updates: validation up front, then copy-on-write.

:func:`cow_apply` builds each new version on a private clone.  A batch
that fails mid-maintenance drops the half-mutated clone, so the
caller's graph and index must come out bit-identical.
"""

from __future__ import annotations

import math

import pytest

import repro.core.dynamic
import repro.directed.dynamic
from repro.baselines.dijkstra import dijkstra
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.dijkstra import directed_distance
from repro.directed.dynamic import DynamicDiCH
from repro.directed.graph import DiRoadNetwork
from repro.errors import GraphError, UpdateError
from repro.graph.graph import RoadNetwork
from repro.reliability import (
    InjectedFault,
    OracleState,
    ResilientOracle,
    cow_apply,
    validate_batch,
)
from repro.serve.server import DistanceServer


def graph_state(graph: RoadNetwork):
    return sorted(graph.edges())


class TestApplyBatchAtomicity:
    """Regression: a bad update mid-batch must not leave earlier updates
    applied (the old ``apply_batch`` mutated as it validated)."""

    def test_bad_edge_mid_batch_leaves_graph_untouched(self, paper_graph):
        before = graph_state(paper_graph)
        batch = [((0, 5), 99.0), ((0, 3), 7.0)]  # (0, 3) does not exist
        with pytest.raises(GraphError):
            paper_graph.apply_batch(batch)
        assert graph_state(paper_graph) == before

    def test_bad_weight_mid_batch_leaves_graph_untouched(self, paper_graph):
        before = graph_state(paper_graph)
        for bad in (-1.0, math.nan, "seven"):
            with pytest.raises(GraphError):
                paper_graph.apply_batch([((0, 5), 4.0), ((1, 4), bad)])
            assert graph_state(paper_graph) == before

    def test_good_batch_still_applies_and_inverts(self, paper_graph):
        before = graph_state(paper_graph)
        batch = [((0, 5), 30.0), ((1, 4), 50.0)]
        inverse = paper_graph.apply_batch(batch)
        assert paper_graph.weight(0, 5) == 30.0
        assert paper_graph.weight(1, 4) == 50.0
        paper_graph.apply_batch(inverse)
        assert graph_state(paper_graph) == before

    def test_duplicate_edge_inverse_restores_prebatch_state(self):
        graph = RoadNetwork.from_edges(2, [(0, 1, 5.0)])
        inverse = graph.apply_batch([((0, 1), 7.0), ((0, 1), 9.0)])
        assert graph.weight(0, 1) == 9.0
        graph.apply_batch(inverse)
        assert graph.weight(0, 1) == 5.0


class TestValidateBatch:
    def test_accepts_good_batch(self, paper_graph):
        pre = validate_batch(paper_graph, [((0, 5), 4.0), ((1, 4), 6.0)])
        assert pre == [((0, 5), 3.0), ((1, 4), 5.0)]

    def test_rejects_duplicates(self, paper_graph):
        with pytest.raises(UpdateError):
            validate_batch(paper_graph, [((0, 5), 4.0), ((5, 0), 6.0)])

    def test_rejects_unknown_edge_and_bad_weight(self, paper_graph):
        with pytest.raises(GraphError):
            validate_batch(paper_graph, [((0, 3), 4.0)])
        with pytest.raises(GraphError):
            validate_batch(paper_graph, [((0, 5), -2.0)])

    def test_directed_keys_by_ordered_arc(self):
        digraph = DiRoadNetwork.from_arcs(3, [(0, 1, 2.0), (1, 0, 5.0),
                                              (1, 2, 1.0)])
        pre = validate_batch(digraph, [((0, 1), 4.0), ((1, 0), 6.0)])
        assert pre == [((0, 1), 2.0), ((1, 0), 5.0)]
        with pytest.raises(UpdateError, match="arc"):
            validate_batch(digraph, [((0, 1), 4.0), ((0, 1), 6.0)])
        with pytest.raises(GraphError):
            validate_batch(digraph, [((2, 1), 4.0)])  # no such arc
        with pytest.raises(GraphError):
            validate_batch(digraph, [((1, 2), math.nan)])


def two_way(graph: RoadNetwork) -> DiRoadNetwork:
    """*graph* with every street two-way at uneven per-direction costs."""
    digraph = DiRoadNetwork(graph.n)
    for i, (u, v, w) in enumerate(sorted(graph.edges())):
        digraph.add_arc(u, v, w)
        digraph.add_arc(v, u, w * (1.0, 1.5, 2.0)[i % 3])
    return digraph


#: case -> (oracle class, facade module, name of its decrease step,
#: name of its increase step).
CASES = {
    "ch": (DynamicCH, repro.core.dynamic, "dch_decrease", "dch_increase"),
    "h2h": (DynamicH2H, repro.core.dynamic,
            "inch2h_decrease", "inch2h_increase"),
    "dich": (DynamicDiCH, repro.directed.dynamic,
             "directed_dch_decrease", "directed_dch_increase"),
}


# The case ids also name the index store under test: the dict store.
@pytest.fixture(params=sorted(CASES), ids=lambda c: f"{c}-dict")
def case(request, small_grid):
    cls, module, decrease, increase = CASES[request.param]
    graph = two_way(small_grid) if cls is DynamicDiCH else small_grid
    return cls(graph), module, decrease, increase


def links(graph):
    """Every edge (arc, on a directed graph) as ``(u, v, weight)``."""
    return sorted(graph.arcs() if hasattr(graph, "arcs") else graph.edges())


def index_state(oracle):
    """Every mutable entry of *oracle*'s index, through its public faces:
    weights, supports, vias and edge weights of the shortcut graph, plus
    the exact bytes of the ``dis`` / ``sup`` matrices for H2H."""
    index = oracle.index
    if isinstance(oracle, DynamicDiCH):
        arcs = [(u, v) for u in range(index.n)
                for v in index.upward(u) + index.downward(u)]
        return (
            [index.weight(u, v) for u, v in arcs],
            [index.support(u, v) for u, v in arcs],
            [index.arc_weight(u, v) for u, v, _w in links(oracle.graph)],
        )
    sc = index.sc if isinstance(oracle, DynamicH2H) else index
    state = (
        sc.weight_snapshot(),
        sc.support_snapshot(),
        sc.via_snapshot(),
        sc.edge_weights(),
    )
    if isinstance(oracle, DynamicH2H):
        state += (index.dis.tobytes(), index.sup.tobytes())
    return state


def mixed_batch(oracle):
    """An increase on one edge and a decrease on another: the increase
    half runs (and writes the clone's index) before the decrease half."""
    (u1, v1, w1), (u2, v2, w2) = links(oracle.graph)[:2]
    return [((u1, v1), w1 * 4.0), ((u2, v2), w2 * 0.5)]


def fail_decrease(monkeypatch, module, decrease, increase,
                  error=RuntimeError):
    """Make the facade's decrease step raise *error* after its increase
    step ran; returns the indexes the increase step wrote."""
    written = []
    real_increase = getattr(module, increase)

    def spy_increase(index, updates, ops):
        written.append(index)
        return real_increase(index, updates, ops)

    def broken_decrease(index, updates, ops):
        raise error("maintenance died mid-batch")

    monkeypatch.setattr(module, increase, spy_increase)
    monkeypatch.setattr(module, decrease, broken_decrease)
    return written


def assert_matches_dijkstra(distance, graph):
    """*distance* (an oracle's or a server's) equals Dijkstra on *graph*."""
    for s in range(0, graph.n, 3):
        if hasattr(graph, "arcs"):
            truth = [directed_distance(graph, s, t) for t in range(graph.n)]
        else:
            truth = dijkstra(graph, s)
        for t in range(graph.n):
            assert distance(s, t) == truth[t], (s, t)


class TestCowApply:
    """The acceptance criterion: a batch that fails mid-maintenance
    leaves the caller's graph and index bit-identical and publishes no
    new version."""

    def test_failed_batch_leaves_caller_bit_identical(self, case,
                                                      monkeypatch):
        oracle, module, decrease, increase = case
        graph_before = links(oracle.graph)
        index_before = index_state(oracle)
        written = fail_decrease(monkeypatch, module, decrease, increase)
        with pytest.raises(RuntimeError, match="mid-batch"):
            cow_apply(oracle, mixed_batch(oracle))
        assert written and all(ix is not oracle.index for ix in written)
        assert links(oracle.graph) == graph_before
        assert index_state(oracle) == index_before

    def test_caller_still_correct_after_failed_batch(self, case,
                                                     monkeypatch):
        oracle, module, decrease, increase = case
        batch = mixed_batch(oracle)
        with monkeypatch.context() as patch:
            fail_decrease(patch, module, decrease, increase)
            with pytest.raises(RuntimeError):
                cow_apply(oracle, batch)
        assert_matches_dijkstra(oracle.distance, oracle.graph)
        # The same batch goes through once maintenance works again.
        next_oracle, report = cow_apply(oracle, batch)
        assert (report.increases, report.decreases) == (1, 1)
        assert_matches_dijkstra(next_oracle.distance, next_oracle.graph)

    def test_failed_publish_keeps_the_epoch(self, case, monkeypatch):
        oracle, module, decrease, increase = case
        with DistanceServer(oracle) as server:
            epoch = server.epoch
            fail_decrease(monkeypatch, module, decrease, increase)
            with pytest.raises(RuntimeError):
                server.apply(mixed_batch(oracle))
            assert server.epoch == epoch
            assert server.snapshot().oracle is oracle
            assert_matches_dijkstra(server.distance, oracle.graph)

    def test_successful_apply_matches_plain_apply(self, case):
        oracle, _module, _decrease, _increase = case
        plain = oracle.clone()
        index_before = index_state(oracle)
        batch = mixed_batch(oracle)
        next_oracle, report_cow = cow_apply(oracle, batch)
        report_plain = plain.apply(batch)
        assert index_state(next_oracle) == index_state(plain)
        assert report_cow == report_plain
        assert index_state(oracle) == index_before

    def test_bad_batch_rejected_before_clone(self, case, monkeypatch):
        oracle, _module, _decrease, _increase = case
        clones = []
        monkeypatch.setattr(oracle, "clone", lambda: clones.append(1))
        (u, v, w), = links(oracle.graph)[:1]
        with pytest.raises(GraphError):
            cow_apply(oracle, [((u, v), w + 1.0), ((0, oracle.graph.n - 1),
                                                   4.0)])
        with pytest.raises(GraphError):
            cow_apply(oracle, [((u, v), -1.0)])
        with pytest.raises(UpdateError):
            cow_apply(oracle, [((u, v), w + 1.0), ((u, v), w + 2.0)])
        assert clones == []


class TestResilientInPlace:
    """:class:`ResilientOracle` maintains its primary in place, with no
    rollback: a batch that dies mid-maintenance must still land whole on
    the graph and stop the half-maintained index from answering."""

    @pytest.mark.parametrize("error", [RuntimeError, InjectedFault])
    @pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
    def test_mid_maintenance_failure_degrades(self, small_grid, monkeypatch,
                                              oracle_cls, error):
        primary = oracle_cls(small_grid)
        oracle = ResilientOracle(primary, max_rebuild_attempts=0)
        batch = mixed_batch(primary)
        module = repro.core.dynamic
        prefix = "dch" if oracle_cls is DynamicCH else "inch2h"
        written = fail_decrease(monkeypatch, module, f"{prefix}_decrease",
                                f"{prefix}_increase", error)
        if error is RuntimeError:
            with pytest.raises(RuntimeError):
                oracle.apply(batch)
        else:
            assert oracle.apply(batch) is None
        assert written == [primary.index]  # the in-place half ran
        assert oracle.primary is primary
        assert oracle.state is OracleState.FALLBACK
        for (u, v), w in batch:
            assert oracle.graph.weight(u, v) == w
        assert_matches_dijkstra(oracle.distance, oracle.graph)
        monkeypatch.undo()
        oracle.rebuild()
        assert oracle.state is OracleState.HEALTHY
        assert_matches_dijkstra(primary.distance, oracle.graph)

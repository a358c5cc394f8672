"""Unit tests for the serving layer's parts: clones, epochs, cache, AFF.

The differential and concurrency batteries (test_serve_differential.py,
test_serve_concurrency.py) exercise the assembled system; this module
pins down each piece's contract in isolation.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.dijkstra import bidirectional_distance
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle
from repro.errors import GraphError, UpdateError
from repro.graph.generators import grid_network, road_network
from repro.obs import names
from repro.obs.registry import Gauge, _Metric
from repro.reliability import cow_apply
from repro.serve import (
    DistanceServer,
    EpochManager,
    QueryCache,
    affected_vertices,
    ch_affected_vertices,
    h2h_affected_vertices,
)
from repro.serve.bench import BenchConfig, serve_bench
from conftest import random_pairs


# ----------------------------------------------------------------------
# clone() / cow_apply
# ----------------------------------------------------------------------
def test_ch_clone_is_independent(small_grid):
    oracle = DynamicCH(small_grid)
    before = oracle.index.weight_snapshot()
    dup = oracle.clone()
    dup.apply([((0, 1), dup.graph.weight(0, 1) * 5)])
    assert oracle.index.weight_snapshot() == before
    assert oracle.graph.weight(0, 1) != dup.graph.weight(0, 1)
    oracle.index.validate()
    dup.index.validate()


def test_h2h_clone_is_independent(small_grid):
    oracle = DynamicH2H(small_grid)
    before = oracle.index.snapshot()
    dup = oracle.clone()
    dup.apply([((0, 1), dup.graph.weight(0, 1) * 5)])
    assert (oracle.index.dis == before).all()
    # Structure is shared, mutable state is not.
    assert dup.index.tree is oracle.index.tree
    assert dup.index.dis is not oracle.index.dis
    oracle.index.validate()
    dup.index.validate()


def test_clone_shares_weight_independent_structure(small_grid):
    oracle = DynamicCH(small_grid)
    dup = oracle.clone()
    sc, dup_sc = oracle.index, dup.index
    assert dup_sc.ordering is sc.ordering
    assert dup_sc.structure is sc.structure
    snapshots = (
        sc.weight_snapshot(),
        sc.support_snapshot(),
        sc.via_snapshot(),
        sc.edge_weights(),
    )
    u, v = next(iter(sc.edge_weights()))
    dup_sc.set_weight(u, v, 1e9)
    dup_sc.set_support(u, v, 7)
    dup_sc.set_via(u, v, 3)
    dup_sc.set_edge_weight(u, v, 1e9)
    assert (
        sc.weight_snapshot(),
        sc.support_snapshot(),
        sc.via_snapshot(),
        sc.edge_weights(),
    ) == snapshots


def test_cow_apply_leaves_original_untouched(small_grid):
    oracle = DynamicH2H(small_grid)
    d0 = oracle.distance(0, 24)
    nxt, report = cow_apply(oracle, [((0, 1), oracle.graph.weight(0, 1) * 3)])
    assert oracle.distance(0, 24) == d0
    assert nxt.distance(0, 24) == bidirectional_distance(nxt.graph, 0, 24)
    assert report.increases == 1


def test_cow_apply_bad_batch_raises_without_new_version(small_grid):
    oracle = DynamicCH(small_grid)
    before = oracle.index.weight_snapshot()
    with pytest.raises(GraphError):
        cow_apply(oracle, [((0, 1), -4.0)])
    assert oracle.index.weight_snapshot() == before


def test_cow_apply_requires_clone():
    class NoClone:
        pass

    with pytest.raises(UpdateError, match="copy-on-write"):
        cow_apply(NoClone(), [])


# ----------------------------------------------------------------------
# EpochManager
# ----------------------------------------------------------------------
def test_epoch_publish_is_monotone_and_immutable(small_grid):
    oracle = DijkstraOracle(small_grid)
    manager = EpochManager(oracle)
    first = manager.current
    assert first.epoch == 0 and first.oracle is oracle
    second = manager.publish(oracle.clone())
    assert manager.current is second
    assert second.epoch == 1
    # The retired snapshot is still fully usable.
    assert first.distance(0, 24) == second.distance(0, 24)
    with pytest.raises(Exception):
        first.epoch = 99  # frozen dataclass


# ----------------------------------------------------------------------
# QueryCache
# ----------------------------------------------------------------------
def test_cache_hits_are_epoch_exact():
    cache = QueryCache(capacity=8)
    cache.put(0, 1, 2, 10.0)
    assert cache.get(0, 1, 2) == 10.0
    assert cache.get(0, 2, 1) == 10.0  # canonical pair key
    assert cache.get(1, 1, 2) is None  # other epoch never sees it
    assert cache.stats.hits == 2 and cache.stats.misses == 1


def test_cache_refuses_stale_overwrite():
    cache = QueryCache(capacity=8)
    cache.put(3, 1, 2, 30.0)
    assert not cache.put(2, 1, 2, 20.0)  # late writer from a retired epoch
    assert cache.peek(3, 1, 2) == 30.0
    assert cache.peek(2, 1, 2) is None


def test_cache_lru_bound():
    cache = QueryCache(capacity=3)
    for i in range(5):
        cache.put(0, i, i + 100, float(i))
    assert len(cache) == 3
    assert cache.stats.evicted_lru == 2
    assert cache.peek(0, 0, 100) is None  # oldest got dropped
    assert cache.peek(0, 4, 104) == 4.0


def test_cache_migrate_carries_unaffected_and_evicts_affected():
    cache = QueryCache(capacity=16)
    cache.put(0, 1, 2, 12.0)
    cache.put(0, 3, 4, 34.0)
    cache.put(0, 5, 6, 56.0)
    carried, evicted = cache.migrate(1, affected={3})
    assert (carried, evicted) == (2, 1)
    assert cache.peek(1, 1, 2) == 12.0
    assert cache.peek(1, 5, 6) == 56.0
    assert cache.peek(1, 3, 4) is None
    assert cache.peek(0, 1, 2) is None  # re-stamped, not duplicated


def test_cache_migrate_none_flushes():
    cache = QueryCache(capacity=16)
    cache.put(0, 1, 2, 12.0)
    carried, evicted = cache.migrate(1, affected=None)
    assert (carried, evicted) == (0, 1)
    assert len(cache) == 0
    assert cache.stats.flushes == 1


def test_cache_migrate_keeps_racing_new_epoch_fills():
    cache = QueryCache(capacity=16)
    cache.put(0, 1, 2, 12.0)
    cache.put(1, 5, 6, 57.0)  # reader already on the new epoch
    carried, evicted = cache.migrate(1, affected={1})
    assert (carried, evicted) == (0, 1)
    assert cache.peek(1, 5, 6) == 57.0


def test_cache_asymmetric_keeps_directions_apart():
    cache = QueryCache(capacity=8, symmetric=False)
    cache.put(0, 2, 5, 212.0)
    assert cache.get(0, 5, 2) is None  # sd(s->t) != sd(t->s)
    cache.put(0, 5, 2, 202.0)
    assert cache.get(0, 2, 5) == 212.0
    assert cache.get(0, 5, 2) == 202.0


def test_directed_server_uses_asymmetric_cache():
    from repro.directed.dynamic import DynamicDiCH
    from repro.directed.graph import DiRoadNetwork

    digraph = DiRoadNetwork.from_undirected(
        grid_network(4, 4, seed=5), asymmetry=1.5
    )
    with DistanceServer(DynamicDiCH(digraph), workers=1) as server:
        assert not server.cache.symmetric
        forward = server.distance(2, 5)
        backward = server.distance(5, 2)
        snap = server.snapshot()
        assert forward == snap.oracle.distance(2, 5)
        assert backward == snap.oracle.distance(5, 2)


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        QueryCache(capacity=0)


# ----------------------------------------------------------------------
# AFF extraction
# ----------------------------------------------------------------------
def test_h2h_affected_vertices_extracts_rows():
    changed = [((4, 1), 2.0, 3.0), ((7, 0), 5.0, 6.0)]
    assert h2h_affected_vertices(changed) == {4, 7}
    directed = [((0, 4, 1), 2.0, 3.0), ((1, 9, 2), 5.0, 6.0)]
    assert h2h_affected_vertices(directed) == {4, 9}


def test_ch_affected_vertices_is_downward_closure(paper_sc):
    # Shortcut <v6, v9> (ids 5, 8): its endpoints plus everything that
    # can climb to them — here every vertex that reaches rank >= 5.
    closure = ch_affected_vertices(paper_sc, [((5, 8), 2.0, 4.0)])
    assert {5, 8} <= closure
    for v in closure - {5, 8}:
        up = set(paper_sc.upward(v))
        assert up & closure, f"{v} has no upward path into the closure"


def test_ch_affected_vertices_soundness(medium_road):
    """Any pair whose distance changes is covered by the closure."""
    oracle = DynamicCH(medium_road)
    pairs = random_pairs(medium_road.n, 60, seed=5)
    before = {p: oracle.distance(*p) for p in pairs}
    report = oracle.apply([((0, 1), medium_road.weight(0, 1) * 10)])
    aff = ch_affected_vertices(oracle.index, report.changed_shortcuts)
    for (s, t), old in before.items():
        if oracle.distance(s, t) != old:
            assert s in aff or t in aff


def test_affected_vertices_dispatch(small_grid):
    ch = DynamicCH(small_grid.copy())
    report = ch.apply([((0, 1), small_grid.weight(0, 1) * 4)])
    assert affected_vertices(ch, report) is not None

    h2h = DynamicH2H(small_grid.copy())
    report = h2h.apply([((0, 1), small_grid.weight(0, 1) * 4)])
    aff = affected_vertices(h2h, report)
    assert aff == h2h_affected_vertices(report.changed_super_shortcuts)

    plain = DijkstraOracle(small_grid.copy())
    assert affected_vertices(plain, plain.apply([])) is None


# ----------------------------------------------------------------------
# DistanceServer
# ----------------------------------------------------------------------
def test_server_serves_and_caches(small_grid):
    with DistanceServer(DynamicCH(small_grid), workers=2) as server:
        d = server.distance(0, 24)
        assert d == bidirectional_distance(server.snapshot().graph, 0, 24)
        assert server.distance(0, 24) == d
        stats = server.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["cache_size"] >= 1


def test_server_publish_updates_answers(small_grid):
    with DistanceServer(DynamicH2H(small_grid), workers=1) as server:
        old_snapshot = server.snapshot()
        d0 = server.distance(0, 24)
        report = server.apply([((0, 1), small_grid.weight(0, 1) * 6)])
        assert report.epoch == 1 == server.epoch
        d1 = server.distance(0, 24)
        assert d1 == bidirectional_distance(server.snapshot().graph, 0, 24)
        # The retired snapshot still answers with its own epoch's truth.
        assert server.distance_on(old_snapshot, 0, 24) == d0


@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H], ids=lambda c: c.__name__)
def test_server_query_many_single_snapshot(small_grid, oracle_cls):
    with DistanceServer(oracle_cls(small_grid), workers=4) as server:
        pairs = random_pairs(small_grid.n, 64, seed=3)
        answers = server.query_many(pairs)
        expected = [server.distance(s, t) for s, t in pairs]
        assert answers == expected
    # The serial per-pair branch: one worker answers the batch in order.
    with DistanceServer(oracle_cls(small_grid), workers=1) as serial:
        assert serial.query_many(pairs) == expected


def test_server_flushes_cache_for_unknown_aff(small_grid):
    with DistanceServer(DijkstraOracle(small_grid), workers=1) as server:
        server.distance(0, 24)
        report = server.apply([((0, 1), small_grid.weight(0, 1) * 2)])
        assert report.affected is None
        assert server.cache.stats.flushes == 1
        assert server.distance(0, 24) == bidirectional_distance(
            server.snapshot().graph, 0, 24
        )


def test_server_aff_migration_keeps_remote_pairs(medium_road):
    """A targeted H2H update keeps cached pairs outside V_aff warm."""
    with DistanceServer(DynamicH2H(medium_road), workers=1) as server:
        pairs = random_pairs(medium_road.n, 100, seed=9)
        for s, t in pairs:
            server.distance(s, t)
        report = server.apply(
            [((0, 1), server.snapshot().graph.weight(0, 1) * 1.01)]
        )
        assert report.affected is not None
        # The tiny perturbation must not flush everything.
        assert report.carried > 0
        for s, t in pairs:
            assert server.distance(s, t) == bidirectional_distance(
                server.snapshot().graph, s, t
            )


def test_server_rejects_bad_workers(small_grid):
    with pytest.raises(ValueError):
        DistanceServer(DijkstraOracle(small_grid), workers=0)


def test_server_close_falls_back_to_serial(small_grid):
    server = DistanceServer(DynamicCH(small_grid), workers=4)
    pairs = random_pairs(small_grid.n, 32, seed=1)
    parallel = server.query_many(pairs)
    server.close()
    assert server.query_many(pairs) == parallel


def test_server_state_is_flat_across_publishes():
    """An epoch is a version, not a metric label: 1,000 publishes add
    no registry series and no cache-stats keys."""
    server = DistanceServer(DynamicCH(grid_network(4, 4, seed=3)), workers=1)
    u, v, w = next(iter(server.snapshot().graph.edges()))
    metrics = server.metrics

    def series():
        return sum(len(metrics.get(name).series()) for name in metrics.names())

    keys = set(server.cache.stats.as_dict())
    for i in range(1, 1001):
        server.apply([((u, v), w * 2 if i % 2 else w)])
        server.distance(0, 15)
        server.query_many([(i % 16, 15 - i % 16), (3, 12)])
        if i == 10:
            after_ten = series()
    assert series() == after_ten
    assert set(server.cache.stats.as_dict()) == keys
    for name in metrics.names():
        if name.startswith("repro_serve_"):
            assert "epoch" not in metrics.get(name).label_names


def test_warm_read_resolves_no_labels_and_writes_no_gauge(small_grid, monkeypatch):
    """After one hit and one miss, a read costs one counter add and one
    histogram observe: no label validation and no gauge write, whether
    the cache is filling or full.  ``repro_serve_cache_entries`` still
    reads ``len(server.cache)`` throughout."""
    server = DistanceServer(DynamicH2H(small_grid), cache_capacity=8, workers=1)
    entries = server.metrics.get(names.SERVE_CACHE_ENTRIES)
    assert entries.value() == 0
    server.distance(0, 1)
    server.distance(0, 1)

    calls = {"labels": 0, "set": 0}
    label_values, gauge_set = _Metric._label_values, Gauge.set

    def counting_label_values(self, labels):
        calls["labels"] += 1
        return label_values(self, labels)

    def counting_set(self, value, **labels):
        calls["set"] += 1
        return gauge_set(self, value, **labels)

    monkeypatch.setattr(_Metric, "_label_values", counting_label_values)
    monkeypatch.setattr(Gauge, "set", counting_set)
    pairs = [(s, t) for s in range(small_grid.n) for t in range(s + 2, small_grid.n)]
    for s, t in pairs[:40]:  # misses: the cache fills, then evicts as it fills
        server.distance(s, t)
        assert entries.value() == len(server.cache)
    for s, t in pairs[32:40]:  # hits
        server.distance(s, t)
    assert calls == {"labels": 0, "set": 0}
    assert len(server.cache) == 8
    queries = server.metrics.get(names.SERVE_QUERIES)
    assert queries.value(result="miss") == 41 and queries.value(result="hit") == 9
    assert server.metrics.get(names.SERVE_QUERY_LATENCY).count() == 50

    server.apply([((0, 1), small_grid.weight(0, 1) * 4)])  # evicts by AFF
    assert entries.value() == len(server.cache) < 8
    server.distance(*pairs[0])
    assert entries.value() == len(server.cache)
    assert "repro_serve_cache_entries %d\n" % len(server.cache) in (
        server.metrics.expose_text()
    )
    server.close()


# ----------------------------------------------------------------------
# serve_bench
# ----------------------------------------------------------------------
_SMOKE_CONFIG = BenchConfig(
    oracle="ch", vertices=120, queries=60, repeats=2,
    updates=1, batch=3, workers=2,
    throughput_edges=4, throughput_reports=2,
)


def test_serve_bench_smoke():
    result = serve_bench(_SMOKE_CONFIG)
    assert len(result.publishes) == 1
    assert result.publishes[0]["epoch"] == 1
    assert math.isfinite(result.baseline_per_query_s)
    payload = result.as_dict()
    assert payload["config"]["oracle"] == "ch"
    # Epochs: 1 update batch + 8 per-update publishes + the restore
    # batch + 1 coalesced publish from the update-throughput phase.
    assert payload["stats"]["epoch"] == 1 + 4 * 2 + 2
    throughput = payload["update_throughput"]
    assert throughput["raw_updates"] == 8
    assert throughput["distinct_edges"] == 4
    assert throughput["batch_speedup"] > 0


@pytest.mark.slow
def test_serve_bench_cache_speedup():
    # A wall-clock ratio, so it runs with the slow suite, not tier-1.
    assert serve_bench(_SMOKE_CONFIG).speedup > 2.0


def test_serve_bench_rejects_unknown_oracle():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="unknown oracle"):
        serve_bench(BenchConfig(oracle="nope"))

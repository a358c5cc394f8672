"""What a served read writes, and what the serving metrics read.

A warm per-call read makes one registry write, its latency
observation; ``repro_serve_queries_total`` is derived from the cache's
hit and miss counts (cached servers) or from the latency count plus the
pairs each batch adds (cache-less label servers).  A scripted run pins
``stats()``, every counter and gauge series and the latency count to
the values the server gave when every read still wrote the counter
itself.  ``query_many`` answers fewer than ``SMALL_BATCH`` misses pair
by pair; batches on either side of that size must give the same
answers, counts and cache puts, undirected and directed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.errors import QueryError
from repro.graph.generators import road_network
from repro.obs import names
from repro.obs.registry import Counter, Gauge, Histogram
from repro.obs.trace import MemorySink, use_sink
from repro.reliability.degrade import DegradePolicy
from repro.serve import server as server_module
from repro.serve.server import SMALL_BATCH, DistanceServer

from conftest import one_way_network


def uniform(n: int, count: int, rng: random.Random):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def scripted_run(server, graph) -> None:
    """Per-call misses and hits, batches of 1, 4 and 500 pairs, snapshot
    pins, reads on a retired snapshot, failed reads and two publishes."""
    rng = random.Random(5)
    n = graph.n
    pairs = uniform(n, 30, rng)
    for s, t in pairs:
        server.distance(s, t)
    for s, t in pairs[:10]:
        server.distance(s, t)
    server.query_many(pairs[:1])
    server.query_many(pairs[:4])
    server.query_many(uniform(n, 4, rng))
    server.query_many(uniform(n, 500, rng))
    pinned = server.snapshot()
    edges = sorted(graph.edges())[:3]
    server.apply([((u, v), w * 2.0) for u, v, w in edges])
    for s, t in pairs[:10]:
        server.distance_on(pinned, s, t)
    server.query_many(pairs[:4])
    server.query_many(uniform(n, 500, rng))
    with pytest.raises(QueryError):
        server.distance(pairs[0][0], n)
    with pytest.raises(QueryError):
        server.query_many(pairs[:3] + [(-1, 0)])
    with pytest.raises(QueryError):
        server.query_many(pairs[:20] + [(0, n)])
    server.apply([((u, v), w) for u, v, w in edges])
    for s, t in pairs[:5]:
        server.distance(s, t)
    server.snapshot()


def bounded_run(server, graph):
    """Offered batches past the high watermark (degraded, journal
    parked), bounded reads, then the drain's catch-up; returns the ε
    each bounded read was stamped with."""
    rng = random.Random(9)
    n = graph.n
    pairs = uniform(n, 20, rng)
    edges = sorted(graph.edges())
    for k in range(4):
        u, v, w = edges[k]
        x, y, _w = edges[k + 10]
        server.offer([((u, v), w * 1.1), ((x, y), w * 3.0)])
    server.pump()
    server.pump()
    stamped = [server.distance_bounded(s, t).max_stretch for s, t in pairs]
    server.query_many(pairs[:4])
    server.drain()
    stamped += [server.distance_bounded(s, t).max_stretch for s, t in pairs[:10]]
    return stamped


def observed(server) -> dict:
    """``stats()``, every counter and gauge series and the latency count."""
    metrics = server.metrics
    series = {}
    for name in metrics.names():
        family = metrics.get(name)
        if isinstance(family, Counter):  # gauges included
            series[name] = {",".join(key): value for key, value in family.series()}
    return {
        "stats": server.stats(),
        "series": series,
        "latency_count": metrics.get(names.SERVE_QUERY_LATENCY).count(),
    }


#: :func:`observed` after each run, as the server gave it when every
#: read still wrote the query counter itself.
PINNED = {
    "ch": {
        "latency_count": 55,
        "series": {
            "repro_serve_cache_capacity": {"": 65536.0},
            "repro_serve_cache_carried_total": {"": 1255.0},
            "repro_serve_cache_entries": {"": 829.0},
            "repro_serve_cache_evicted_total": {"": 197.0},
            "repro_serve_coalesce_dropped_total": {"": 0.0},
            "repro_serve_coalesce_superseded_total": {"": 0.0},
            "repro_serve_deferral_actions_total": {
                "cancel": 0.0, "catchup": 0.0, "defer": 0.0, "promote": 0.0,
            },
            "repro_serve_deferred_edges": {},
            "repro_serve_epoch": {"": 2.0},
            "repro_serve_epsilon": {},
            "repro_serve_pending_age_seconds": {},
            "repro_serve_pending_batches": {},
            "repro_serve_publishes_total": {"": 2.0},
            "repro_serve_queries_total": {"hit": 30.0, "miss": 1038.0},
            "repro_serve_snapshot_pins_total": {"": 2.0},
            "repro_serve_state": {},
        },
        "stats": {
            "cache": {
                "carried": 1255,
                "evicted_aff": 197,
                "evicted_lru": 0,
                "flushes": 0,
                "hit_rate": 0.044789762340036565,
                "hits": 49,
                "misses": 1045,
            },
            "cache_capacity": 65536,
            "cache_size": 829,
            "epoch": 2,
        },
    },
    "degraded": {
        "latency_count": 30,
        "series": {
            "repro_serve_cache_capacity": {"": 65536.0},
            "repro_serve_cache_carried_total": {"": 30.0},
            "repro_serve_cache_entries": {"": 17.0},
            "repro_serve_cache_evicted_total": {"": 6.0},
            "repro_serve_coalesce_dropped_total": {"": 0.0},
            "repro_serve_coalesce_superseded_total": {"": 0.0},
            "repro_serve_deferral_actions_total": {
                "cancel": 0.0, "catchup": 2.0, "defer": 2.0, "promote": 0.0,
            },
            "repro_serve_deferred_edges": {"": 0.0},
            "repro_serve_epoch": {"": 4.0},
            "repro_serve_epsilon": {"": 0.0},
            "repro_serve_pending_age_seconds": {"": 0.0},
            "repro_serve_pending_batches": {"": 0.0},
            "repro_serve_publishes_total": {"": 4.0},
            "repro_serve_queries_total": {"hit": 11.0, "miss": 23.0},
            "repro_serve_snapshot_pins_total": {},
            "repro_serve_state": {"": 0.0},
        },
        "stats": {
            "cache": {
                "carried": 30,
                "evicted_aff": 6,
                "evicted_lru": 0,
                "flushes": 0,
                "hit_rate": 0.3235294117647059,
                "hits": 11,
                "misses": 23,
            },
            "cache_capacity": 65536,
            "cache_size": 17,
            "degraded": {
                "counters": {"cancel": 0, "catchup": 2, "defer": 2, "promote": 0},
                "epsilon": 0.0,
                "oldest_age": 0,
                "overloaded": False,
                "pending": 0,
                "pending_age_s": 0.0,
                "pending_batches": 0,
                "state": "healthy",
                "threshold_c": 1.25,
            },
            "epoch": 4,
        },
    },
    "h2h": {
        "latency_count": 55,
        "series": {
            "repro_serve_cache_capacity": {"": 0.0},
            "repro_serve_cache_carried_total": {"": 0.0},
            "repro_serve_cache_entries": {"": 0.0},
            "repro_serve_cache_evicted_total": {"": 0.0},
            "repro_serve_coalesce_dropped_total": {"": 0.0},
            "repro_serve_coalesce_superseded_total": {"": 0.0},
            "repro_serve_deferral_actions_total": {
                "cancel": 0.0, "catchup": 0.0, "defer": 0.0, "promote": 0.0,
            },
            "repro_serve_deferred_edges": {},
            "repro_serve_epoch": {"": 2.0},
            "repro_serve_epsilon": {},
            "repro_serve_pending_age_seconds": {},
            "repro_serve_pending_batches": {},
            "repro_serve_publishes_total": {"": 2.0},
            "repro_serve_queries_total": {"hit": 0.0, "miss": 1068.0},
            "repro_serve_snapshot_pins_total": {"": 2.0},
            "repro_serve_state": {},
        },
        "stats": {"cache": None, "cache_capacity": 0, "cache_size": 0, "epoch": 2},
    },
}


@pytest.mark.parametrize("kind", ["ch", "h2h"])
def test_scripted_run_exposes_the_pinned_metrics(kind):
    graph = road_network(300, seed=11)
    make = DynamicCH if kind == "ch" else DynamicH2H
    with DistanceServer(make(graph.copy()), workers=1) as server:
        scripted_run(server, graph)
        assert observed(server) == PINNED[kind]


def test_bounded_reads_expose_the_pinned_metrics():
    graph = road_network(300, seed=11)
    policy = DegradePolicy(high_watermark=3, low_watermark=1, max_batch_age_s=1e9)
    with DistanceServer(DynamicCH(graph.copy()), workers=1, degrade=policy) as server:
        stamped = bounded_run(server, graph)
        assert observed(server) == PINNED["degraded"]
    assert stamped[0] > 0.0 and stamped[-1] == 0.0


# ----------------------------------------------------------------------
# One registry write per warm read
# ----------------------------------------------------------------------
@pytest.fixture()
def registry_writes(monkeypatch):
    """Every registry write from now on, as ``(method, family name)``."""
    writes = []
    for cls, method in (
        (Counter, "inc"), (Gauge, "inc"), (Gauge, "set"), (Histogram, "observe"),
    ):
        original = getattr(cls, method)

        def spy(self, *args, _original=original, _method=method, **kwargs):
            writes.append((_method, self.name))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, spy)
    return writes


@pytest.mark.parametrize("make", [DynamicCH, DynamicH2H, DynamicDiH2H],
                         ids=["ch", "h2h", "dih2h"])
def test_a_warm_read_makes_one_registry_write(make, registry_writes):
    directed = make is DynamicDiH2H
    graph = one_way_network(80) if directed else road_network(80, seed=4)
    with DistanceServer(make(graph), workers=1) as server:
        pairs = uniform(graph.n, 40, random.Random(2))
        server.distance(*pairs[0])
        del registry_writes[:]
        for s, t in pairs + pairs:  # misses, then hits on a cached server
            server.distance(s, t)
        assert registry_writes == [("observe", names.SERVE_QUERY_LATENCY)] * 80
        queries = server.metrics.get(names.SERVE_QUERIES)
        hits = 0 if server.cache is None else server.cache.stats.hits
        assert queries.value(result="hit") == hits
        assert queries.value(result="miss") == 81 - hits
        assert queries.total() == server.metrics.get(names.SERVE_QUERY_LATENCY).count()


def test_a_traced_read_spans_and_keeps_its_exemplar(registry_writes):
    graph = road_network(80, seed=4)
    with DistanceServer(DynamicCH(graph), workers=1) as server:
        sink = MemorySink()
        del registry_writes[:]
        with use_sink(sink):
            server.distance(3, 70)
            server.distance(3, 70)
        assert registry_writes == [("observe", names.SERVE_QUERY_LATENCY)] * 2
        records = [r for r in sink.records if r["span"] == names.SPAN_SERVE_QUERY]
        assert [(r["epoch"], r["hit"]) for r in records] == [(0, False), (0, True)]
        latency = server.metrics.get(names.SERVE_QUERY_LATENCY)
        exemplars = {e["trace_id"] for e in latency.exemplars().values()}
        assert exemplars <= {r["trace_id"] for r in records} and exemplars
        queries = server.metrics.get(names.SERVE_QUERIES)
        assert (queries.value(result="hit"), queries.value(result="miss")) == (1, 1)


# ----------------------------------------------------------------------
# Small batches: pair by pair below SMALL_BATCH, the same effects
# ----------------------------------------------------------------------
ORACLES = {
    "ch": (DynamicCH, False),
    "h2h": (DynamicH2H, False),
    "dich": (DynamicDiCH, True),
    "dih2h": (DynamicDiH2H, True),
}


def batch_effects(kind, pairs, monkeypatch, small_batch):
    """Read the first 5 of *pairs* per call, then all of them in one
    ``query_many``, with the crossover set to *small_batch*.  Returns
    the answers, query counts, latency count and cache contents, and
    the size of each ``distance_many`` call the server made."""
    make, directed = ORACLES[kind]
    graph = one_way_network(120) if directed else road_network(120, seed=8)
    monkeypatch.setattr(server_module, "SMALL_BATCH", small_batch)
    oracle = make(graph)
    distance_many, calls = oracle.distance_many, []

    def counted(sources, targets):
        calls.append(len(sources))
        return distance_many(sources, targets)

    oracle.distance_many = counted
    with DistanceServer(oracle, workers=1) as server:
        for s, t in pairs[:5]:
            server.distance(s, t)
        answers = server.query_many(pairs)
        queries = server.metrics.get(names.SERVE_QUERIES)
        cache = server.cache
        effects = {
            "answers": answers,
            "counts": (queries.value(result="hit"), queries.value(result="miss")),
            "latency": server.metrics.get(names.SERVE_QUERY_LATENCY).count(),
            "cache": None if cache is None else [cache.peek(0, s, t) for s, t in pairs],
            "size": None if cache is None else len(cache),
        }
        assert answers == distance_many(*zip(*pairs)).tolist()
    return effects, calls


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("misses", [SMALL_BATCH - 1, SMALL_BATCH, SMALL_BATCH + 1])
def test_batches_at_the_crossover_match_the_vectorised_path(kind, misses, monkeypatch):
    """*misses* pairs of the batch reach the oracle; on a CH server 5
    more are hits, held from the per-call reads before it."""
    n = 120
    fresh = [(s, (s + 1 + k) % n) for k, s in enumerate(range(0, 3 * misses, 3))]
    cached = ORACLES[kind][0] in (DynamicCH, DynamicDiCH)
    pairs = uniform(n, 5, random.Random(1)) + fresh if cached else fresh
    per_pair, calls = batch_effects(kind, pairs, monkeypatch, misses + 1)
    assert calls == []
    assert per_pair["counts"] == ((5, 5 + misses) if cached else (0, 5 + misses))
    assert per_pair["latency"] == 5  # the batch observes no per-pair latency
    assert batch_effects(kind, pairs, monkeypatch, misses) == (per_pair, [misses])
    assert batch_effects(kind, pairs, monkeypatch, SMALL_BATCH) == (
        per_pair, [] if misses < SMALL_BATCH else [misses]
    )


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_a_batch_with_a_bad_id_counts_nothing(kind):
    make, directed = ORACLES[kind]
    graph = one_way_network(60) if directed else road_network(60, seed=8)
    with DistanceServer(make(graph), workers=1) as server:
        n = graph.n
        server.distance(1, 2)
        queries = server.metrics.get(names.SERVE_QUERIES)
        before = queries.series()
        for bad in ([(1, 2), (-1, 3)], [(1, 2), (3, n)], [(1, 2)] * 20 + [(n, 1)]):
            with pytest.raises(QueryError):
                server.query_many(bad)
            assert queries.series() == before
        with pytest.raises(ValueError):
            server.query_many([(1, 2, 3)])

"""Differential fuzz battery for the serving layer.

Seeded random update streams interleaved with queries: every answer the
server produces — cache miss, cache hit, ``query_many`` batch, or a
read against a retired epoch snapshot — must equal a from-scratch
(bidirectional) Dijkstra run on *that epoch's* graph.  CH and H2H
servers ride the same stream and must also agree with each other;
a directed stream checks the directed oracles the same way.

The tier-1 cases keep the sweep small; the ``slow`` marker holds the
big seeded sweeps the dedicated CI job runs.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.dijkstra import bidirectional_distance
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.dijkstra import directed_distance
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.graph.generators import grid_network, road_network
from repro.serve import DistanceServer
from repro.workloads.updates import mixed_batch


def _pairs(n: int, count: int, rng: random.Random):
    pairs = []
    for _ in range(count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        pairs.append((s, t))
    return pairs


def _run_undirected_stream(
    graph, *, epochs: int, batch: int, queries: int, seed: int
) -> None:
    """Drive CH + H2H servers through one seeded stream and check every
    served answer against Dijkstra on the answering epoch's graph."""
    rng = random.Random(seed)
    servers = {
        "ch": DistanceServer(DynamicCH(graph.copy()), workers=2),
        "h2h": DistanceServer(DynamicH2H(graph.copy()), workers=2),
    }
    try:
        snapshots = {kind: [server.snapshot()] for kind, server in servers.items()}
        for _ in range(epochs):
            base = servers["ch"].snapshot().graph
            updates = mixed_batch(base, batch, rng=rng)
            for kind, server in servers.items():
                server.apply(updates)
                snapshots[kind].append(server.snapshot())

            pairs = _pairs(graph.n, queries, rng)
            answers = {}
            for kind, server in servers.items():
                current = server.snapshot()
                truth_graph = current.graph
                # Path 1: query_many (CH: thread pool, misses; H2H: one
                # vectorised distance_many call that bypasses the cache).
                got = server.query_many(pairs)
                # Path 2: point queries (hits for CH; H2H keeps no cache
                # and reads its labels), then again (hits for CH).
                again = [server.distance(s, t) for s, t in pairs]
                assert got == again, f"{kind}: point answers diverge from the batch"
                if server.cache is not None:
                    hits = server.cache.stats.hits
                cached = [server.distance(s, t) for s, t in pairs]
                if server.cache is not None:
                    assert server.cache.stats.hits - hits == len(pairs)
                assert cached == got, f"{kind}: hit answers diverge from misses"
                for (s, t), d in zip(pairs, got):
                    assert d == bidirectional_distance(truth_graph, s, t), (
                        f"{kind} epoch {current.epoch}: sd({s},{t})"
                    )
                answers[kind] = got
                # Path 3: a retired snapshot keeps answering its own truth.
                old = snapshots[kind][rng.randrange(len(snapshots[kind]) - 1)]
                s, t = pairs[0]
                assert server.distance_on(old, s, t) == bidirectional_distance(
                    old.graph, s, t
                ), f"{kind} retired epoch {old.epoch}: sd({s},{t})"
            assert answers["ch"] == answers["h2h"]
    finally:
        for server in servers.values():
            server.close()


def _run_directed_stream(
    digraph: DiRoadNetwork, *, epochs: int, batch: int, queries: int, seed: int
) -> None:
    rng = random.Random(seed)
    servers = {
        "dich": DistanceServer(DynamicDiCH(digraph.copy()), workers=2),
        "dih2h": DistanceServer(DynamicDiH2H(digraph.copy()), workers=2),
    }
    try:
        for _ in range(epochs):
            base = servers["dich"].snapshot().graph
            arcs = rng.sample(list(base.arcs()), batch)
            updates = [
                ((u, v), w * rng.choice((0.5, 2.0, 3.0))) for u, v, w in arcs
            ]
            pairs = _pairs(digraph.n, queries, rng)
            answers = {}
            for kind, server in servers.items():
                server.apply(updates)
                current = server.snapshot()
                got = server.query_many(pairs)
                again = [server.distance(s, t) for s, t in pairs]
                assert got == again, f"{kind}: point answers diverge from the batch"
                cached = [server.distance(s, t) for s, t in pairs]
                assert cached == got, f"{kind}: hit answers diverge from misses"
                for (s, t), d in zip(pairs, got):
                    assert d == directed_distance(current.graph, s, t), (
                        f"{kind} epoch {current.epoch}: sd({s}->{t})"
                    )
                answers[kind] = got
            assert answers["dich"] == answers["dih2h"]
    finally:
        for server in servers.values():
            server.close()


def _mixed_arcs(digraph: DiRoadNetwork, count: int, rng: random.Random):
    """The directed twin of :func:`mixed_batch`: half the sampled arcs
    x2, half x0.5."""
    arcs = rng.sample(list(digraph.arcs()), count)
    half = len(arcs) // 2
    return [((u, v), w * 2.0) for u, v, w in arcs[:half]] + [
        ((u, v), w * 0.5) for u, v, w in arcs[half:]
    ]


INTEGRITY_STREAMS = {
    "h2h": (
        lambda: DynamicH2H(road_network(100, seed=9)),
        lambda graph, rng: mixed_batch(graph, 6, rng=rng),
    ),
    "dih2h": (
        lambda: DynamicDiH2H(DiRoadNetwork.from_undirected(road_network(100, seed=9))),
        lambda digraph, rng: _mixed_arcs(digraph, 6, rng),
    ),
}


def _run_integrity_stream(kind: str, epochs: int) -> None:
    """The served index stays Equation (<>)/(*) consistent per epoch."""
    build, batch = INTEGRITY_STREAMS[kind]
    rng = random.Random(77)
    server = DistanceServer(build(), workers=1)
    try:
        for _ in range(epochs):
            base = server.snapshot().graph
            server.apply(batch(base, rng))
            server.snapshot().oracle.index.validate()
    finally:
        server.close()


# ----------------------------------------------------------------------
# Tier-1 cases
# ----------------------------------------------------------------------
def test_differential_grid_stream():
    _run_undirected_stream(
        grid_network(5, 5, seed=7), epochs=4, batch=6, queries=30, seed=101
    )


def test_differential_road_stream():
    _run_undirected_stream(
        road_network(120, seed=3), epochs=3, batch=8, queries=30, seed=202
    )


def test_differential_directed_stream():
    digraph = DiRoadNetwork.from_undirected(
        grid_network(4, 4, seed=5), asymmetry=1.5
    )
    _run_directed_stream(digraph, epochs=3, batch=5, queries=25, seed=303)


@pytest.mark.parametrize("kind", sorted(INTEGRITY_STREAMS))
def test_index_integrity_along_short_stream(kind):
    _run_integrity_stream(kind, epochs=2)


def test_differential_fuzz_sweep_undirected_smoke():
    """The slow undirected sweep's body at a tier-1 size: one seed over
    the served clone chain."""
    _fuzz_sweep_undirected(11, n=60, epochs=2, batch=4, queries=20)


def test_differential_fuzz_sweep_directed_smoke():
    """The slow directed sweep's body at a tier-1 size."""
    _fuzz_sweep_directed(5, n=60, epochs=2, batch=4, queries=20)


# ----------------------------------------------------------------------
# Slow sweeps (dedicated CI job: pytest -m "slow or stress")
# ----------------------------------------------------------------------
def _fuzz_sweep_undirected(
    seed: int, *, n: int, epochs: int, batch: int, queries: int
) -> None:
    _run_undirected_stream(
        road_network(n, seed=seed),
        epochs=epochs,
        batch=batch,
        queries=queries,
        seed=1000 + seed,
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_differential_fuzz_sweep_undirected(seed):
    _fuzz_sweep_undirected(seed, n=250, epochs=8, batch=12, queries=60)


def _fuzz_sweep_directed(
    seed: int, *, n: int, epochs: int, batch: int, queries: int
) -> None:
    digraph = DiRoadNetwork.from_undirected(
        road_network(n, seed=seed), asymmetry=2.0
    )
    _run_directed_stream(
        digraph, epochs=epochs, batch=batch, queries=queries, seed=2000 + seed
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [5, 17])
def test_differential_fuzz_sweep_directed(seed):
    _fuzz_sweep_directed(seed, n=80, epochs=6, batch=8, queries=40)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(INTEGRITY_STREAMS))
def test_differential_index_integrity_along_stream(kind):
    _run_integrity_stream(kind, epochs=5)

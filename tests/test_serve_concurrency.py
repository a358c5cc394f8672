"""Concurrency battery for the serving layer.

Reader threads hammer a :class:`DistanceServer` while a writer publishes
copy-on-write epochs.  Three properties must hold under any interleaving:

* **No torn reads** — every answer a reader records, tagged with the
  epoch it was served at, equals Dijkstra on exactly that epoch's graph;
  an answer mixing two versions would match neither.
* **No stale post-publish hits** — once ``apply`` returns, a query on
  the new epoch never resurrects a pre-publish cached value for a pair
  the update changed.
* **AFF eviction soundness** (hypothesis property) — any cached pair
  whose distance an update actually changed is gone from the new
  epoch's cache before it is ever re-queried.

The tier-1 cases run small; ``stress``-marked variants scale readers,
epochs and graph size for the dedicated CI job.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import bidirectional_distance
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.graph.generators import grid_network, road_network
from repro.serve import DistanceServer
from repro.workloads.updates import mixed_batch
from conftest import random_pairs


# ----------------------------------------------------------------------
# Readers vs. writer: no torn reads
# ----------------------------------------------------------------------
def _run_readers_vs_writer(
    graph, *, oracle_cls, readers: int, epochs: int, batch: int, seed: int
) -> None:
    """Concurrent readers + one writer; then audit every recorded answer
    against the ground truth of the epoch it was served at."""
    rng = random.Random(seed)
    server = DistanceServer(oracle_cls(graph.copy()), workers=2)
    versions = {0: server.snapshot()}
    versions_lock = threading.Lock()
    stop = threading.Event()
    records = [[] for _ in range(readers)]
    errors = []

    def reader(slot: int) -> None:
        gen = random.Random(seed * 1000 + slot)
        try:
            while not stop.is_set():
                snapshot = server.snapshot()
                s = gen.randrange(graph.n)
                t = gen.randrange(graph.n)
                d = server.distance_on(snapshot, s, t)
                records[slot].append((snapshot.epoch, s, t, d))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(readers)
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(epochs):
            base = server.snapshot().graph
            report = server.apply(mixed_batch(base, batch, rng=rng))
            with versions_lock:
                versions[report.epoch] = server.snapshot()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        server.close()

    assert not errors, errors
    audited = 0
    for slot_records in records:
        for epoch, s, t, d in slot_records:
            truth = bidirectional_distance(versions[epoch].graph, s, t)
            assert d == truth, f"epoch {epoch}: sd({s},{t}) = {d} != {truth}"
            audited += 1
    assert audited > 0
    # The stream really did cross epochs while readers were running.
    assert server.epoch == epochs


def test_readers_vs_writer_ch():
    _run_readers_vs_writer(
        grid_network(5, 5, seed=7),
        oracle_cls=DynamicCH,
        readers=4,
        epochs=4,
        batch=6,
        seed=11,
    )


def test_readers_vs_writer_h2h():
    _run_readers_vs_writer(
        road_network(80, seed=2),
        oracle_cls=DynamicH2H,
        readers=4,
        epochs=3,
        batch=8,
        seed=13,
    )


def _readers_vs_writer_scenario(oracle_cls, n: int, readers: int, epochs: int,
                                batch: int) -> None:
    """The stress scenario's body, at any size."""
    _run_readers_vs_writer(
        road_network(n, seed=6),
        oracle_cls=oracle_cls,
        readers=readers,
        epochs=epochs,
        batch=batch,
        seed=17,
    )


@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
def test_readers_vs_writer_stress_smoke(oracle_cls):
    """The stress scenario at a size that fails in seconds on a
    signature change."""
    _readers_vs_writer_scenario(oracle_cls, n=30, readers=2, epochs=2, batch=3)


@pytest.mark.stress
@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
def test_readers_vs_writer_stress(oracle_cls):
    _readers_vs_writer_scenario(oracle_cls, n=150, readers=8, epochs=10, batch=10)


# ----------------------------------------------------------------------
# query_many batches stay on one epoch across publishes
# ----------------------------------------------------------------------
def _truths_per_epoch(versions, pairs):
    return {
        epoch: tuple(
            bidirectional_distance(snapshot.graph, s, t) for s, t in pairs
        )
        for epoch, snapshot in versions.items()
    }


@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H], ids=lambda c: c.__name__)
def test_query_many_batches_are_single_epoch(oracle_cls):
    """Every batch answered mid-publish matches ONE epoch's truth vector
    — a batch straddling a swap would match none of them.  CH batches
    take the per-pair thread-pool path, H2H batches the vectorised
    ``distance_many`` one."""
    graph = road_network(80, seed=4)
    rng = random.Random(23)
    pairs = random_pairs(graph.n, 24, seed=9)
    server = DistanceServer(oracle_cls(graph.copy()), workers=4)
    versions = {0: server.snapshot()}
    stop = threading.Event()
    batches = []
    errors = []

    def reader() -> None:
        try:
            while not stop.is_set():
                batches.append(tuple(server.query_many(pairs)))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for _ in range(4):
            base = server.snapshot().graph
            report = server.apply(mixed_batch(base, 8, rng=rng))
            versions[report.epoch] = server.snapshot()
    finally:
        stop.set()
        thread.join()
        server.close()

    assert not errors, errors
    assert batches
    truths = set(_truths_per_epoch(versions, pairs).values())
    for batch in batches:
        assert batch in truths, "batch matches no single epoch's truth"


# ----------------------------------------------------------------------
# No stale hits after a publish
# ----------------------------------------------------------------------
def test_no_stale_hits_after_publish():
    """Warm the cache, publish a distance-changing update, and check the
    changed pairs: the new epoch serves fresh values, the hit counters
    prove the fresh values were computed, not resurrected."""
    graph = road_network(100, seed=5)
    pairs = random_pairs(graph.n, 80, seed=3)
    with DistanceServer(DynamicH2H(graph.copy()), workers=1) as server:
        before = {p: server.distance(*p) for p in pairs}
        # A near-free edge reroutes many shortest paths at once, so the
        # update is guaranteed to change some of the sampled pairs.
        report = server.apply(
            [((0, 1), server.snapshot().graph.weight(0, 1) * 1e-3)]
        )
        assert report.epoch == 1
        current = server.snapshot()
        changed = 0
        for (s, t), old in before.items():
            truth = bidirectional_distance(current.graph, s, t)
            if truth != old:
                changed += 1
                # The stale value must be unreachable at the new epoch...
                assert server.cache.peek(report.epoch, s, t) is None
            # ...and the served answer is the new epoch's truth either way.
            assert server.distance(s, t) == truth
        assert changed > 0, "update was supposed to change some distances"


# ----------------------------------------------------------------------
# AFF eviction soundness (hypothesis property)
# ----------------------------------------------------------------------
_PROP_GRAPH = road_network(60, seed=8)
_PROP_EDGES = list(_PROP_GRAPH.edges())
_PROP_BASES = {
    "ch": DynamicCH(_PROP_GRAPH.copy()),
    "h2h": DynamicH2H(_PROP_GRAPH.copy()),
}


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(_PROP_BASES)),
    edge_index=st.integers(min_value=0, max_value=len(_PROP_EDGES) - 1),
    factor=st.sampled_from([0.2, 0.5, 4.0, 20.0]),
    pair_seed=st.integers(min_value=0, max_value=2**16),
)
def test_aff_eviction_is_sound(kind, edge_index, factor, pair_seed):
    """If an update changed sd(s, t) for a cached pair, migration must
    have evicted it — a carried entry with a wrong value would be an
    unsound cache, no matter how rarely it is hit."""
    server = DistanceServer(_PROP_BASES[kind].clone(), workers=1)
    try:
        pairs = random_pairs(_PROP_GRAPH.n, 40, seed=pair_seed)
        before = {p: server.distance(*p) for p in pairs}
        u, v, w = _PROP_EDGES[edge_index]
        report = server.apply([((u, v), w * factor)])
        current = server.snapshot()
        for (s, t), old in before.items():
            cached = server.cache.peek(report.epoch, s, t)
            truth = bidirectional_distance(current.graph, s, t)
            if truth != old:
                assert cached is None, (
                    f"changed pair ({s},{t}) survived migration "
                    f"with value {cached}"
                )
            if cached is not None:
                assert cached == truth
    finally:
        server.close()


# ----------------------------------------------------------------------
# The cached-hit speedup target (ISSUE acceptance: >= 5x)
# ----------------------------------------------------------------------
@pytest.mark.stress
def test_serve_bench_meets_speedup_target():
    from repro.serve.bench import BenchConfig, serve_bench

    result = serve_bench(
        BenchConfig(
            oracle="ch",
            vertices=250,
            queries=200,
            repeats=3,
            updates=2,
            batch=5,
            workers=2,
        )
    )
    assert result.speedup >= 5.0, f"speedup {result.speedup:.1f}x < 5x"

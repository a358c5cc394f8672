"""Recycled label buffers: a clone that reuses a retired epoch's
``dis``/``sup`` matrices is bit-equal to a full copy.

:meth:`repro.h2h.index.H2HIndex.clone` (and the directed index's) hands
a clone its parent's matrices as a *spare*; the clone's own clone takes
the spare when nothing else references it and copies in just the cells
the level engine logged.  These tests hold that path to the full copy it
replaces, undirected and directed: on every publish of a mixed stream,
under pinned readers and retained row views, when the parent is written
after lending its matrices, after writers that bypass the log, and after
maintenance that fails half way.  Three guards fail fast if a stray
reference stops the recycling or lets buffers pile up.
"""

from __future__ import annotations

import random
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.baselines.dijkstra import distance as dijkstra_distance
from repro.ch.dch import dch_increase
from repro.core.dynamic import DynamicH2H
from repro.directed.dijkstra import directed_distance
from repro.directed.dynamic import DynamicDiH2H
from repro.graph.generators import road_network
from repro.h2h import inch2h
from repro.h2h.dtdhl import dtdhl_increase
from repro.reliability.faults import FaultInjector, InjectedFault
from repro.serve import DistanceServer
from repro.workloads.updates import (
    increase_batch,
    mixed_batch,
    restore_batch,
    sample_edges,
)

from test_directed_inch2h_levels import one_way_city


@pytest.fixture(scope="module")
def road400():
    return road_network(400)


@pytest.fixture(scope="module")
def city400(road400):
    return one_way_city(road400)


def undirected_stream(graph, rounds=6, count=15):
    """Increase, restore and mixed batches, as functions of the current
    graph."""
    for k in range(rounds):
        edges = sample_edges(graph, count, seed=100 + k)
        yield lambda g, e=edges: increase_batch(e, 2.0)
        yield lambda g, e=edges: restore_batch(e)
        yield lambda g, k=k: mixed_batch(g, count, seed=200 + k)


def directed_stream(digraph, rounds=6, count=15):
    arcs = list(digraph.arcs())
    for k in range(rounds):
        picked = random.Random(100 + k).sample(arcs, count)
        yield lambda g, p=picked: [((u, v), w * 2.0) for u, v, w in p]
        yield lambda g, p=picked: [((u, v), w) for u, v, w in p]
        yield lambda g, p=picked: [
            ((u, v), g.weight(u, v) * (2.0 if i % 2 else 0.5))
            for i, (u, v, _w) in enumerate(p)
        ]


KINDS = {
    "undirected": (DynamicH2H, "road400", undirected_stream, dijkstra_distance),
    "directed": (DynamicDiH2H, "city400", directed_stream, directed_distance),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    make, network, stream, truth = KINDS[request.param]
    return make, request.getfixturevalue(network), stream, truth


def labels(oracle):
    index = oracle.index
    return index.dis.tobytes(), index.sup.tobytes()


def assert_fresh(oracle, make):
    """The maintained labels equal a fresh build on the current graph."""
    fresh = make(oracle.graph.copy(), oracle.index.sc.ordering)
    assert labels(oracle) == labels(fresh)


def answers(oracle, pairs):
    return [oracle.distance(s, t) for s, t in pairs]


def some_pairs(n, count=40, seed=9):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
def test_every_recycled_clone_equals_its_parent(kind):
    make, graph, stream, _truth = kind
    oracle = make(graph.copy())
    batches = list(stream(graph))
    recycled = 0
    retired = None  # the label matrix of the epoch before `oracle`
    for batch in batches:
        parent = labels(oracle)
        nxt = oracle.clone()
        assert labels(nxt) == parent
        recycled += retired is not None and nxt.index.dis is retired()
        retired = weakref.ref(oracle.index.dis)
        nxt.apply(batch(nxt.graph))
        oracle = nxt
    assert recycled == len(batches) - 1
    assert_fresh(oracle, make)


def test_pinned_reader_keeps_its_epoch(kind):
    make, graph, stream, truth = kind
    batches = stream(graph)
    pairs = some_pairs(graph.n)
    with DistanceServer(make(graph.copy())) as server:
        server.apply(next(batches)(server.snapshot().graph))
        pinned = server.snapshot()  # epoch k - 1
        expected = answers(pinned.oracle, pairs)
        assert expected == [truth(pinned.graph, s, t) for s, t in pairs]
        for _ in range(2):
            server.apply(next(batches)(server.snapshot().graph))
        assert answers(pinned.oracle, pairs) == expected
        current = server.snapshot()
        assert answers(current.oracle, pairs) == [
            truth(current.graph, s, t) for s, t in pairs
        ]
        assert_fresh(current.oracle, make)


def test_retained_row_view_stays_put(kind):
    make, graph, stream, _truth = kind
    batches = stream(graph)
    with DistanceServer(make(graph.copy())) as server:
        server.apply(next(batches)(server.snapshot().graph))
        u = graph.n - 1
        row = server.snapshot().oracle.index.dis[..., u, :]
        before = row.tobytes()
        for _ in range(3):
            server.apply(next(batches)(server.snapshot().graph))
        assert row.tobytes() == before
        assert_fresh(server.snapshot().oracle, make)


def test_parent_written_after_cloning(kind):
    """``b = a.clone(); a.apply(x); del a; b.clone()``: b's spare no
    longer holds b's labels and must not be recycled."""
    make, graph, stream, _truth = kind
    batches = stream(graph)
    root = make(graph.copy())
    a = root.clone()  # a clone, so it has a log and a spare of its own
    del root
    a.apply(next(batches)(a.graph))
    b = a.clone()
    a.apply(next(batches)(a.graph))
    del a
    c = b.clone()
    assert labels(c) == labels(b)
    c.apply(next(batches)(c.graph))
    assert_fresh(c, make)


def test_two_clones_of_one_parent(kind):
    make, graph, stream, _truth = kind
    batches = stream(graph)
    a = make(graph.copy()).clone()
    a.apply(next(batches)(a.graph))
    b, c = a.clone(), a.clone()
    a.apply(next(batches)(a.graph))
    del a
    for x in (b, c):
        y = x.clone()
        assert labels(y) == labels(x)
        y.apply(next(batches)(y.graph))
        assert_fresh(y, make)


def _recycling_pair(graph):
    """A clone whose spare is recyclable (its parent is gone)."""
    a = DynamicH2H(graph.copy()).clone()
    b = a.clone()
    del a
    return b.index


def _assert_clone_is_a_full_copy(index):
    c = index.clone()
    assert (c.dis.tobytes(), c.sup.tobytes()) == (
        index.dis.tobytes(), index.sup.tobytes()
    )


def test_dtdhl_drops_the_log(road400):
    """DTDHL writes labels the engine does not log.  The one edge of a
    dead-end vertex changes one shortcut, whose row has no dependents:
    DTDHL writes that row and never calls ``recompute_entry``."""
    index = _recycling_pair(road400)
    sc = index.sc
    u, v, w = next(
        (u, v, w)
        for u, v, w in road400.edges()
        for x in (u, v)
        if len(sc.upward(x)) == 1 and not sc.downward(x)
    )
    before = index.dis.copy()
    dtdhl_increase(index, [((u, v), w * 3.0)])
    assert not np.array_equal(index.dis, before)
    _assert_clone_is_a_full_copy(index)


def test_recompute_entry_drops_the_log(road400):
    index = _recycling_pair(road400)
    before = index.dis.copy()
    edges = sample_edges(road400, 10, seed=31)
    changed = dch_increase(index.sc, increase_batch(edges, 3.0))
    rank = index.sc.ordering.rank
    for (x, y), _old, _new in changed:
        u = x if rank[x] < rank[y] else y
        for da in range(int(index.tree.depth[u])):
            index.recompute_entry(u, da)
    assert not np.array_equal(index.dis, before)
    _assert_clone_is_a_full_copy(index)


def test_failed_maintenance_leaves_the_next_publish_exact(kind, monkeypatch):
    make, graph, stream, truth = kind
    batches = stream(graph)
    pairs = some_pairs(graph.n)
    with DistanceServer(make(graph.copy())) as server:
        for _ in range(2):
            server.apply(next(batches)(server.snapshot().graph))

        # Half way through maintenance on the clone.
        relax, calls = inch2h._relax, []

        def failing(*args):
            calls.append(1)
            relax(*args)
            if len(calls) == 2:
                raise RuntimeError("maintenance failed")

        monkeypatch.setattr(inch2h, "_relax", failing)
        epoch = server.snapshot().epoch
        decrease = [
            (e, w * 0.5) for e, w in next(batches)(server.snapshot().graph)
        ]
        with pytest.raises(RuntimeError):
            server.apply(decrease)
        assert len(calls) == 2 and server.snapshot().epoch == epoch
        monkeypatch.undo()

        # Before any maintenance, through a fault injector.
        current = server.snapshot().oracle
        injector = FaultInjector(seed=1)
        injector.fail_next("apply")
        with pytest.raises(InjectedFault):
            injector.wrap_oracle(current.clone()).apply(decrease)
        del current

        for batch in (decrease, next(batches)(server.snapshot().graph)):
            server.apply(batch)
            snap = server.snapshot()
            assert answers(snap.oracle, pairs) == [
                truth(snap.graph, s, t) for s, t in pairs
            ]
            assert_fresh(snap.oracle, make)


def test_log_longer_than_the_matrix_is_dropped(road400):
    oracle = DynamicH2H(road400.copy()).clone()
    for k in range(40):
        oracle.apply(mixed_batch(oracle.graph, 30, seed=300 + k))
        if oracle.index.log is None:
            break
    assert oracle.index.log is None
    nxt = oracle.clone()
    assert labels(nxt) == labels(oracle)


# ----------------------------------------------------------------------
# Guards: recycling happens, and stays bounded
# ----------------------------------------------------------------------
def test_publish_recycles_the_epoch_before_last(road400):
    with DistanceServer(DynamicH2H(road400.copy())) as server:
        batches = undirected_stream(road400)
        server.apply(next(batches)(server.snapshot().graph))
        epoch_k = weakref.ref(server.snapshot().oracle.index.dis)
        for _ in range(2):
            server.apply(next(batches)(server.snapshot().graph))
        assert server.snapshot().oracle.index.dis is epoch_k()


def test_at_most_two_label_matrices_live(road400):
    with DistanceServer(DynamicH2H(road400.copy())) as server:
        refs = []
        for k in range(20):
            index = server.snapshot().oracle.index
            refs += [weakref.ref(index.dis), weakref.ref(index.sup)]
            del index
            server.apply(mixed_batch(server.snapshot().graph, 5, seed=400 + k))
        live = {id(array) for array in (ref() for ref in refs) if array is not None}
        assert len(live) <= 4  # dis and sup of the current epoch and its spare


def test_never_cloned_oracle_keeps_no_log():
    graph = road_network(100, seed=3)
    oracle = DynamicH2H(graph)
    for k in range(200):
        oracle.apply(mixed_batch(oracle.graph, 1, seed=k))
    assert oracle.index.log is None


def test_readers_racing_recycling_publishes():
    """Readers that hold each snapshot for one read only, so publishes
    recycle label matrices while they run (more readers than cores, a
    short switch interval): every answer equals its own epoch's truth.

    Before every other publish the readers park on an event, holding no
    snapshot, so nothing references the epoch before last: each of
    those publishes must recycle, whatever the scheduling.  The other
    publishes race the readers."""
    graph = road_network(80, seed=2)
    server = DistanceServer(DynamicH2H(graph.copy()))
    graphs = {0: server.snapshot().graph}
    stop = threading.Event()
    running = threading.Event()
    running.set()
    parked = threading.Semaphore(0)
    records: list = []
    errors: list = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                if not running.is_set():
                    parked.release()  # between reads: no snapshot held
                    running.wait()
                    continue
                s, t = rng.randrange(graph.n), rng.randrange(graph.n)
                snapshot = server.snapshot()
                d = server.distance_on(snapshot, s, t)
                if len(records) < 4000:
                    records.append((snapshot.epoch, s, t, d))
                del snapshot
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    recycled = parked_publishes = 0
    try:
        for thread in threads:
            thread.start()
        before_last = None
        for k in range(12):
            park = k % 2 == 1
            if park:
                running.clear()
                for _ in threads:
                    assert parked.acquire(timeout=60), "a reader never parked"
            last = weakref.ref(server.snapshot().oracle.index.dis)
            report = server.apply(mixed_batch(server.snapshot().graph, 6, seed=k))
            current = server.snapshot()
            graphs[report.epoch] = current.graph
            if park:
                parked_publishes += 1
                recycled += current.oracle.index.dis is before_last()
                running.set()
            del current
            before_last = last
    finally:
        stop.set()
        running.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
        server.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert records
    for epoch, s, t, d in records:
        assert d == dijkstra_distance(graphs[epoch], s, t), (epoch, s, t)
    assert parked_publishes == 6
    assert recycled == parked_publishes

"""Seeded inputs and the cycles of each workload.

Every input comes from the ``--seed`` through its own ``random.Random``
stream (pairs, reads, congestion order, batches, checks), so the same
seed gives the same inputs whatever the run's speed, and
``h2h-traffic`` and ``ch-traffic`` see the identical stream.  What the
streams draw from (the congestion pool, the hot set) is fixed per graph.

Congestion follows the paper's protocol: raise sampled edges x2 in one
publish (IncH2H+ / DCH+) and restore them in the next (IncH2H- /
DCH-).  The edges come from a fixed pool per graph (``POOL_SEED``), and
the seed sets the order in which the pool is congested.  Maintenance
cost spans three orders of magnitude across edges, so a run that drew
its own few hundred edges would measure its draw more than the program.

A run is a sequence of cycles, one per publish, and each cycle does a
little of every kind of operation, so every metric is sampled across the
whole run (the host's speed drifts; see :mod:`perfbench.report`).
Cycles repeat passes over the pool (same order; each pass ends with the
graph restored): at least ``READ_PASSES`` / ``TRAFFIC_PASSES``, and
more while ``--seconds`` have not passed.  Every publish of every pass
is a sample.

``read`` workloads (``h2h-read``): fill the 65,536-pair cache with
distinct uniform pairs (untimed); then per cycle, per-call uniform
reads (misses: the pair space is ~1,400x the cache), one 1,000-pair
``query_many`` batch of uniform pairs, then one publish of a single
congested edge.  No maintenance runs while a read is timed.

``traffic`` workloads (``h2h-traffic``, ``ch-traffic``) follow YCSB
(Cooper et al., SoCC 2010): reads draw from a 4,096-pair hot set by
YCSB's scrambled Zipfian, constant ``ZIPF_A = 0.99``, and the seed sets
the draws.  Like the congestion pool, the hot set and its ranking are
fixed per graph (``HOT_SEED``): at 0.99 the top 100 pairs take ~58% of
the reads, so a hot set drawn per seed would measure which pairs came
out on top (a CH query's cost differs severalfold across pairs).  The
read:update mix is YCSB workload B's 95:5, one edge weight change
counting as one update, so a 2-edge publish is followed by
``2 * 19 = 38`` per-call reads.  Every ``batch_every = 50`` cycles one
``query_many`` batch of 500 uniform pairs runs, so that
``batch_pair_qps`` is measured here too.  YCSB has no batch period.  The
fixed cost of waking the server's worker threads varies by milliseconds
on a busy host: at 50 pairs a batch it set the figure (2x apart across
seeds), at 500 it is a small share.  The cache is warmed with Zipf
draws (untimed) before the first cycle.

Sampled answers are checked against Dijkstra on the graph of the epoch
that served them.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import os
import random
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from perfbench import shims
from perfbench.client import Client, Pair, PassResult, host_probe
from perfbench.spec import Workload
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.experiments import datasets
from repro.graph.generators import road_network
from repro.serve import DistanceServer

ORACLES = {"h2h": DynamicH2H, "ch": DynamicCH}
POOL_SEED = "perfbench-congestion-pool"
HOT_SEED = "perfbench-hot-set"
FACTOR = 2.0  #: congestion: weight x FACTOR, restored by the next publish
ZIPF_A = 0.99  #: YCSB's ZipfianGenerator constant
READ_PASSES = 1  #: least passes over the read workload's pool
TRAFFIC_PASSES = 2  #: least passes over the traffic workloads' pool
SETUP_REPS = 2  #: least builds per untraced run (setup_s is their median)
SETUP_SECONDS = 2.0  #: ... and more builds until this much build time


@dataclass(frozen=True)
class Knobs:
    """Workload sizes; the defaults are the benchmark, the smoke test shrinks them."""

    vertices: Optional[int] = None  #: None: the registry graph; else road_network(n)
    # read workload
    cache_fill: int = 65536  #: distinct pairs read before timing (= cache size)
    read_pool: int = 30  #: congested edges, one per publish: 60 publishes a pass
    reads_per_cycle: int = 1000
    batch_pairs: int = 1000  #: pairs per query_many batch, one per cycle
    check_every: int = 5  #: cycles between Dijkstra checks of a read and a pair
    # traffic workloads
    traffic_pool: int = 100  #: congested edges, two per publish: 100 publishes a pass
    hot_pairs: int = 4096  #: size of the hot set
    warm_reads: int = 1000  #: untimed Zipf reads before the first cycle
    reads_per_round: int = 38  #: K: YCSB-B's 19 reads per update, 2 updates a publish
    checks_per_round: int = 2  #: Dijkstra-checked reads per epoch
    traffic_batch_pairs: int = 500
    batch_every: int = 50  #: cycles between query_many batches


def workers() -> int:
    """Server worker threads: the default (4), at most the usable cores."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def base_graph(workload: Workload, knobs: Knobs):
    if knobs.vertices is not None:
        return road_network(knobs.vertices, seed=datasets.DATASETS[workload.dataset].seed)
    return datasets.fresh_copy(workload.dataset)


def setup(workload: Workload, knobs: Knobs, reps: int,
          seconds: float = 0.0) -> Tuple[DistanceServer, List[float], List[float]]:
    """Build index + server at least *reps* times and until *seconds* of
    build time; keep the last.  Returns it, each build's time and the
    host time around each build (see :func:`~perfbench.client.host_probe`)."""
    times: List[float] = []
    hosts: List[float] = []
    server = None
    while len(times) < reps or sum(times) < seconds:
        graph = base_graph(workload, knobs)
        if server is not None:
            server.close()
            server = None
        gc.collect()
        host = host_probe()
        t0 = perf_counter()
        server = DistanceServer(ORACLES[workload.oracle](graph), workers=workers())
        times.append(perf_counter() - t0)
        hosts.append((host + host_probe()) / 2)
    return server, times, hosts


def uniform_pairs(rng: random.Random, n: int, count: int) -> List[Pair]:
    pairs = []
    for _ in range(count):
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        pairs.append((s, t + (t >= s)))
    return pairs


def distinct_pairs(rng: random.Random, n: int, count: int) -> List[Pair]:
    """*count* distinct unordered pairs (the cache's key space)."""
    count = min(count, n * (n - 1) // 2)
    seen = set()
    out: List[Pair] = []
    while len(out) < count:
        s, t = uniform_pairs(rng, n, 1)[0]
        key = (s, t) if s < t else (t, s)
        if key not in seen:
            seen.add(key)
            out.append((s, t))
    return out


class HotSet:
    """Zipf(``ZIPF_A``) draws over a fixed set of pairs, ranked in the
    order given (seeded random pairs: YCSB's scrambled ranking)."""

    def __init__(self, pairs: Sequence[Pair], rng: random.Random) -> None:
        self.pairs = list(pairs)
        self.rng = rng
        self.cum = list(itertools.accumulate(1.0 / (i + 1) ** ZIPF_A for i in range(len(pairs))))

    def draw(self, count: int) -> List[Pair]:
        top, cum, rng = self.cum[-1], self.cum, self.rng
        return [self.pairs[bisect.bisect_left(cum, rng.random() * top)] for _ in range(count)]


def congestion_pass(graph, pool_size: int, per_publish: int,
                    rng: random.Random) -> List[list]:
    """One pass over the graph's congestion pool: *per_publish* edges at a
    time, raised ×``FACTOR`` in one batch and restored in the next.  Which
    edges share a batch is fixed with the pool; *rng* orders the batches."""
    edges = list(graph.edges())
    pool = random.Random(POOL_SEED).sample(edges, min(pool_size, len(edges)))
    groups = [pool[i : i + per_publish] for i in range(0, len(pool), per_publish)]
    rng.shuffle(groups)
    batches = []
    for group in groups:
        batches.append([((u, v), w * FACTOR) for u, v, w in group])
        batches.append([((u, v), float(w)) for u, v, w in group])
    return batches


def cycles(client: Client, batches: List[list], seconds: float, min_passes: int):
    """Yield ``(cycle number, update batch)`` over whole passes of
    *batches*: *min_passes* of them, then more until *seconds* passed."""
    client.result.publishes_per_pass = len(batches)
    start = perf_counter()
    done = 0
    for passes in itertools.count():
        if passes >= min_passes and perf_counter() - start >= seconds:
            return
        for batch in batches:
            done += 1
            yield done, batch


def run_read(client: Client, seed: int, seconds: float, knobs: Knobs) -> None:
    server = client.server
    graph = server.snapshot().graph
    n = graph.n
    pairs_rng = random.Random(f"{seed}:pairs")
    batch_rng = random.Random(f"{seed}:batches")
    checks = random.Random(f"{seed}:checks")
    client.reads(distinct_pairs(pairs_rng, n, knobs.cache_fill), timed=False)
    batches = congestion_pass(graph, knobs.read_pool, 1, random.Random(f"{seed}:rounds"))
    per_cycle = knobs.reads_per_cycle + knobs.batch_pairs
    client.result.exact_read_groups = knobs.cache_fill // per_cycle
    for done, update in cycles(client, batches, seconds, READ_PASSES):
        pairs = uniform_pairs(pairs_rng, n, knobs.reads_per_cycle)
        answers = client.reads(pairs)
        many = uniform_pairs(batch_rng, n, knobs.batch_pairs)
        many_answers = client.batch(many)
        if done % knobs.check_every == 0:
            i, j = checks.randrange(len(pairs)), checks.randrange(len(many))
            client.verify(server.snapshot().graph, [pairs[i], many[j]],
                          [answers[i], many_answers[j] if many_answers else None])
        client.publish(update)


def run_traffic(client: Client, seed: int, seconds: float, knobs: Knobs) -> None:
    server = client.server
    graph = server.snapshot().graph
    n = graph.n
    reads_rng = random.Random(f"{seed}:reads")
    batch_rng = random.Random(f"{seed}:batches")
    hot = HotSet(distinct_pairs(random.Random(HOT_SEED), n, knobs.hot_pairs), reads_rng)
    checks = random.Random(f"{seed}:checks")
    client.reads(hot.draw(knobs.warm_reads), timed=False)
    batches = congestion_pass(graph, knobs.traffic_pool, 2, random.Random(f"{seed}:rounds"))
    for done, update in cycles(client, batches, seconds, TRAFFIC_PASSES):
        client.publish(update)
        epoch_graph = server.snapshot().graph
        pairs = hot.draw(knobs.reads_per_round)
        answers = client.reads(pairs)
        picked = checks.sample(range(len(pairs)), min(knobs.checks_per_round, len(pairs)))
        client.verify(epoch_graph, [pairs[i] for i in picked], [answers[i] for i in picked])
        if done % knobs.batch_every == 0:
            many = uniform_pairs(batch_rng, n, knobs.traffic_batch_pairs)
            many_answers = client.batch(many)
            if many_answers is not None:
                j = checks.randrange(len(many))
                client.verify(epoch_graph, [many[j]], [many_answers[j]])


RUNNERS = {"read": run_read, "traffic": run_traffic}


def run_pass(workload: Workload, seed: int, seconds: float, knobs: Knobs, *,
             setup_reps: int = 1, setup_seconds: float = 0.0, tracer: Optional[shims.Tracer] = None,
             count: bool = False) -> Tuple[PassResult, dict]:
    """Set up, run the cycles of *workload*, close the server.

    With a *tracer* the timing shims are installed after set-up and
    removed before returning.  Returns the pass result and facts about
    the served index (backend, graph size, registry series count).
    """
    server, setup_s, setup_host = setup(workload, knobs, setup_reps, setup_seconds)
    try:
        client = Client(server, tracer=tracer, count=count)
        client.result.setup_s = setup_s
        client.result.setup_host = setup_host
        stats = getattr(getattr(server, "cache", None), "stats", None)
        lru0 = stats.evicted_lru if stats is not None else 0
        oracle = server.snapshot().oracle
        if tracer is None:
            RUNNERS[workload.kind](client, seed, seconds, knobs)
        else:
            with shims.installed(tracer, server):
                RUNNERS[workload.kind](client, seed, seconds, knobs)
        facts = {
            "oracle.backend": getattr(oracle, "backend", "n/a"),
            "n": oracle.graph.n,
            "m": oracle.graph.m,
            "registry_series": registry_series(server),
            "lru_evictions": (stats.evicted_lru - lru0) if stats is not None else 0,
        }
        return client.result, facts
    finally:
        server.close()


def registry_series(server) -> int:
    """Number of labelled series in the server's metrics registry."""
    registry = getattr(server, "metrics", None)
    if registry is None:
        return 0
    return sum(len(registry.get(name).series()) for name in registry.names())

#!/usr/bin/env python
"""Seeded state digest of the four dynamic oracles and their servers.

Run from the repository root with the package on the path::

    PYTHONPATH=src python tools/state_digest.py > digest.txt

Builds ``DynamicCH``, ``DynamicH2H``, ``DynamicDiCH`` and
``DynamicDiH2H`` on ``road_network(600, seed=7)`` (the directed two on
the same streets, 30% of them one-way), applies 10 seeded mixed batches
to each (every update doubles, halves, restores or deletes with ``inf``
one edge or arc), and prints, per batch:

* the changed list of the report (changed shortcuts for CH, changed
  super-shortcuts for H2H) and the op dict, zero-valued keys included;
* digests of the shortcut store's ``phi``, ``phi(e, G)`` and ``sup``
  bytes and, for H2H, of the ``dis`` and ``sup`` label bytes;
* digests of 200 per-call ``distance`` answers and of the same pairs
  through ``distance_many``.

Then it serves each of the four from a ``DistanceServer`` and, over 3
seeded 2-update publishes, prints per publish:

* digests of per-call ``distance`` answers (each pair read twice, so a
  cached server also hits) and of ``query_many`` answers for batches of
  1, 4, 15, 16, 17 and 500 pairs, half of them pairs already read;
* the registry series that do not depend on timing: queries by result,
  the latency observation count, publishes and the cache entries
  carried and evicted.

Witnesses (``via``) are left out: a witness depends on the order of
updates, not only on the weights.  The script uses the facades' and
the server's public faces only, so it runs unchanged against an older
``src`` tree; two trees that maintain and serve the same state print
the same text.  It takes no options.
"""

from __future__ import annotations

import hashlib
import math
import random

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed import DiRoadNetwork, DynamicDiCH, DynamicDiH2H
from repro.graph.generators import road_network
from repro.obs import names
from repro.serve import DistanceServer

N, SEED, BATCHES, BATCH_SIZE, PAIRS = 600, 7, 10, 24, 200
PUBLISHES, READS, BATCH_PAIRS = 3, 60, (1, 4, 15, 16, 17, 500)
SERIES = (
    names.SERVE_QUERIES,
    names.SERVE_PUBLISHES,
    names.SERVE_CACHE_CARRIED,
    names.SERVE_CACHE_EVICTED,
)


def digest(data) -> str:
    """A short hash of *data* (bytes, or anything with a stable repr)."""
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def one_way(graph) -> DiRoadNetwork:
    """*graph* with 30% of its streets one-way and the rest two-way, the
    backward arc at 1, 1.5 or 2 times the forward weight."""
    rng = random.Random(3)
    digraph = DiRoadNetwork(graph.n)
    for u, v, w in graph.edges():
        roll = rng.random()
        if roll < 0.15:
            digraph.add_arc(u, v, w)
        elif roll < 0.30:
            digraph.add_arc(v, u, w)
        else:
            digraph.add_arc(u, v, w)
            digraph.add_arc(v, u, w * rng.choice([1.0, 1.5, 2.0]))
    return digraph


def links(graph):
    """Every edge (arc, on a directed network) as ``(u, v, weight)``."""
    return list(graph.arcs() if hasattr(graph, "arcs") else graph.edges())


def batches(graph, rng):
    """The 10 mixed batches, each drawn against the current weights."""
    original = {(u, v): w for u, v, w in links(graph)}
    keys = sorted(original)
    for _ in range(BATCHES):
        batch = []
        for key in rng.sample(keys, BATCH_SIZE):
            current = graph.weight(*key)
            kind = rng.choice(("x2", "x0.5", "restore", "inf"))
            if math.isinf(current) or kind == "restore":
                new = original[key]
            elif kind == "x2":
                new = current * 2.0
            elif kind == "x0.5":
                new = current * 0.5
            else:
                new = math.inf
            batch.append((key, new))
        yield batch


def store_bytes(oracle):
    """The CH store's phi, phi(e, G) and sup bytes (no via)."""
    sc = getattr(oracle.index, "sc", oracle.index)
    phi, phi_g, sup, _via = sc.slot_views()
    return phi.tobytes(), phi_g.tobytes(), sup.tobytes()


def run(name, oracle, rng) -> None:
    graph = oracle.graph
    print(f"== {name}")
    for k, batch in enumerate(batches(graph, rng)):
        report = oracle.apply(batch)
        changed = [
            (tuple(int(x) for x in key), float(old), float(new))
            for key, old, new in list(report.changed_shortcuts)
            + list(report.changed_super_shortcuts)
        ]
        print(f"batch {k}: +{report.increases} -{report.decreases} "
              f"changed {len(changed)} {digest(changed)}")
        print(f"  ops {sorted(report.ops.items())}")
        phi, phi_g, sup = store_bytes(oracle)
        print(f"  phi {digest(phi)} phi_G {digest(phi_g)} sup {digest(sup)}")
        labels = getattr(oracle.index, "dis", None)
        if labels is not None:
            print(f"  dis {digest(labels.tobytes())} "
                  f"label_sup {digest(oracle.index.sup.tobytes())}")
        sources = [rng.randrange(graph.n) for _ in range(PAIRS)]
        targets = [rng.randrange(graph.n) for _ in range(PAIRS)]
        per_call = [float(oracle.distance(s, t)) for s, t in zip(sources, targets)]
        batch_answers = oracle.distance_many(sources, targets)
        print(f"  answers {digest(per_call)} "
              f"batch {digest(batch_answers.tobytes())}")


def serve(name, oracle, rng) -> None:
    server = DistanceServer(oracle, workers=1)
    graph = oracle.graph
    n = graph.n
    print(f"== DistanceServer({name})")
    for k, batch in zip(range(PUBLISHES), batches(graph, rng)):
        report = server.apply(batch[:2])
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(READS)]
        per_call = [server.distance(s, t) for s, t in pairs + pairs]
        answers = []
        for size in BATCH_PAIRS:
            drawn = [(rng.randrange(n), rng.randrange(n)) for _ in range(size - size // 2)]
            answers.append(server.query_many(rng.sample(pairs * 9, size // 2) + drawn))
        print(f"publish {k}: epoch {report.epoch} answers {digest(per_call)} "
              f"batches {digest(answers)}")
        metrics = server.metrics
        series = {family: metrics.get(family).series() for family in SERIES}
        latency = metrics.get(names.SERVE_QUERY_LATENCY).count()
        print(f"  latency count {latency} series {sorted(series.items())}")
    server.close()


def main() -> None:
    base = road_network(N, seed=SEED)
    oracles = (
        ("DynamicCH", lambda: DynamicCH(base.copy())),
        ("DynamicH2H", lambda: DynamicH2H(base.copy())),
        ("DynamicDiCH", lambda: DynamicDiCH(one_way(base))),
        ("DynamicDiH2H", lambda: DynamicDiH2H(one_way(base))),
    )
    for name, make in oracles:
        run(name, make(), random.Random(SEED))
    for name, make in oracles:
        serve(name, make(), random.Random(SEED))


if __name__ == "__main__":
    main()

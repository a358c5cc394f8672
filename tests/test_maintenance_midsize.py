"""Mid-size maintenance differential: DCH± and IncH2H± at n = 2,025.

Seeded increase, decrease and mixed batches go through ``cow_apply`` on
a ``road_network(2025)``.  After every batch, sampled answers of the new
version must equal Dijkstra on its graph.  The maintenance itself is
pinned too: the totals of the changed sets, the operation counts and
the ``‖AFF‖`` / ``|DIFF|`` currencies must equal golden values recorded
from the snapshot-and-rollback publish path that clone-then-swap
replaced.  A change to them is a change to the algorithms, not to how a
version is published.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.changed import ch_change_metrics, h2h_change_metrics
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.graph.generators import road_network
from repro.reliability.transactions import cow_apply
from repro.workloads.updates import (
    increase_batch,
    mixed_batch,
    restore_batch,
    sample_edges,
)

N = 2025
EDGES_PER_BATCH = 60
SOURCES, TARGETS = 4, 50

#: Totals over the five batches of :func:`batches`.
GOLDEN = {
    "DynamicCH": {
        "changed": 11198,
        "ops": {
            "delta_inspect": 300,
            "queue_push": 11198,
            "queue_pop": 11198,
            "scp_plus_inspect": 311105,
            "scp_minus_inspect": 82501,
        },
        "aff_norm": 485994,
        "diff": 322603,
    },
    "DynamicH2H": {
        "changed": 338579,
        "ops": {
            "delta_inspect": 300,
            "queue_push": 349777,
            "queue_pop": 349777,
            "scp_plus_inspect": 311105,
            "scp_minus_inspect": 82501,
            "anc_scan": 782287,
            "dependent_inspect": 2152461,
            "star_term": 1050807,
        },
        "aff_norm": 4334500,
        "diff": 2491640,
    },
}


def batches(graph):
    """Increase then restore one edge sample, decrease then restore
    another, then a half-up / half-down mix — all from integer weights,
    so every distance stays exact in floating point."""
    first = sample_edges(graph, EDGES_PER_BATCH, seed=1)
    second = sample_edges(graph, EDGES_PER_BATCH, seed=2)
    return [
        increase_batch(first, 2.0),
        restore_batch(first),
        [((u, v), w * 0.5) for u, v, w in second],
        restore_batch(second),
        mixed_batch(graph, EDGES_PER_BATCH, seed=3),
    ]


def currencies(oracle, report):
    delta = report.increases + report.decreases
    if isinstance(oracle, DynamicH2H):
        metrics = h2h_change_metrics(
            oracle.index, delta, report.changed_shortcuts,
            report.changed_super_shortcuts,
        )
    else:
        metrics = ch_change_metrics(oracle.index, delta,
                                    report.changed_shortcuts)
    return metrics.aff_norm, metrics.diff


def assert_matches_dijkstra(oracle, rng):
    graph = oracle.graph
    for s in rng.sample(range(graph.n), SOURCES):
        truth = dijkstra(graph, s)
        for t in rng.sample(range(graph.n), TARGETS):
            assert oracle.distance(s, t) == truth[t], (s, t)


def run(oracle_cls):
    """Drive every batch through ``cow_apply``; return per-batch records."""
    graph = road_network(N)
    oracle = oracle_cls(graph.copy())
    rng = random.Random(2025)
    records = []
    for batch in batches(graph):
        oracle, report = cow_apply(oracle, batch)
        assert_matches_dijkstra(oracle, rng)
        aff_norm, diff = currencies(oracle, report)
        records.append({
            "changed_shortcuts": sorted(report.changed_shortcuts),
            "changed_super_shortcuts": sorted(report.changed_super_shortcuts),
            "ops": report.ops,
            "aff_norm": aff_norm,
            "diff": diff,
        })
    return records


def totals(records):
    ops = Counter()
    for record in records:
        ops.update(record["ops"])
    return {
        "changed": sum(len(r["changed_shortcuts"])
                       + len(r["changed_super_shortcuts"]) for r in records),
        "ops": dict(ops),
        "aff_norm": sum(r["aff_norm"] for r in records),
        "diff": sum(r["diff"] for r in records),
    }


@pytest.mark.slow
@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
def test_mid_size_maintenance_differential(oracle_cls):
    assert totals(run(oracle_cls)) == GOLDEN[oracle_cls.__name__]

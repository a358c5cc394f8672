"""Mid-size maintenance differential: DCH± and IncH2H± at n = 2,025.

Seeded increase, decrease and mixed batches go through ``cow_apply`` on
a ``road_network(2025)``.  After every batch, sampled answers of the new
version must equal Dijkstra on its graph.  The maintenance itself is
pinned too: the totals of the changed sets, the operation counts and
the ``‖AFF‖`` / ``|DIFF|`` currencies must equal golden values recorded
from the snapshot-and-rollback publish path that clone-then-swap
replaced.  A change to them is a change to the algorithms, not to how a
version is published.

The same pipeline runs in tier-1 at n = 150 with the Dijkstra checks
and its own golden totals, so a broken signature or a changed count
anywhere on it fails in seconds.
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
SMOKE_N = 150
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

#: The same totals at ``SMOKE_N``, recorded before DCH± moved onto slot
#: ids, so the tier-1 smoke run pins the maintenance too.
SMOKE_GOLDEN = {
    "DynamicCH": {
        "changed": 1397,
        "ops": {
            "delta_inspect": 300,
            "queue_push": 1397,
            "queue_pop": 1397,
            "scp_plus_inspect": 6351,
            "scp_minus_inspect": 1730,
        },
        "aff_norm": 11669,
        "diff": 8048,
    },
    "DynamicH2H": {
        "changed": 10792,
        "ops": {
            "delta_inspect": 300,
            "queue_push": 12189,
            "queue_pop": 12189,
            "scp_plus_inspect": 6351,
            "scp_minus_inspect": 1730,
            "anc_scan": 19161,
            "dependent_inspect": 32867,
            "star_term": 16738,
        },
        "aff_norm": 67960,
        "diff": 44259,
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


def run(oracle_cls, n=N):
    """Drive every batch through ``cow_apply``; return per-batch records."""
    graph = road_network(n)
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


@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
def test_small_maintenance_pipeline(oracle_cls):
    records = run(oracle_cls, SMOKE_N)
    assert len(records) == 5
    assert all(record["aff_norm"] for record in records)
    assert totals(records) == SMOKE_GOLDEN[oracle_cls.__name__]

"""DCH± leaves the CH store as a fresh CHIndexing of the same graph.

The shortcut structure is weight independent, so after any batch the
maintained store must equal :func:`repro.core.dynamic._reweigh` of the
updated network on the same structure: φ and sup byte for byte, and via
too by the build's tie rule (the original edge first, else the
lowest-ranked apex attaining the weight).  Checked after each of
several seeded mixed batches, undirected (``D = 1``) and directed
(``D = 2``).

The via comparison fails today: when a new term ties a shortcut's
weight, DCH± raises its support but keeps the old witness, which is
valid but may not be the one the build picks.  It is marked a strict
expected failure, so mending DCH± turns it into a failure that asks
for the mark to go.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dynamic import DynamicCH, _reweigh
from repro.directed import DynamicDiCH
from repro.graph.generators import road_network
from repro.reliability import verify_index
from repro.utils.counters import OpCounter

from conftest import one_way_network


def mixed_batch(graph, rng, size):
    """*size* distinct edges (arcs) of *graph*, each scaled up or down;
    some weights tie on purpose (a weight copied from another edge)."""
    keys = sorted((u, v) for u, v, _ in
                  (graph.arcs() if hasattr(graph, "arcs") else graph.edges()))
    weights = [graph.weight(u, v) for u, v in keys]
    batch = []
    for u, v in rng.sample(keys, size):
        roll = rng.random()
        if roll < 0.4:
            w = graph.weight(u, v) * rng.choice([1.5, 2.0, 4.0])
        elif roll < 0.8:
            w = graph.weight(u, v) * rng.choice([0.25, 0.5, 0.75])
        else:
            w = rng.choice(weights)
        batch.append(((u, v), w))
    return batch


#: Both directions, each over several seeded runs of six batches.
CASES = pytest.mark.parametrize(
    "facade, graph",
    [(DynamicCH, road_network(300, seed=7)), (DynamicDiCH, one_way_network(300))],
    ids=["D=1", "D=2"],
)
SEEDS = (0, 1, 2, 21)


def maintained_and_fresh(facade, graph):
    """After each batch: the maintained oracle and a fresh reweigh of
    its graph on its structure."""
    for seed in SEEDS:
        oracle = facade(graph.copy())
        rng = random.Random(seed)
        for _ in range(6):
            oracle.apply(mixed_batch(oracle.graph, rng, 25))
            yield oracle, _reweigh(oracle.graph, oracle.index, OpCounter())


@CASES
def test_phi_and_sup_match_fresh_reweigh(facade, graph):
    for oracle, fresh in maintained_and_fresh(facade, graph):
        edge, phi, edge_w, sup, _ = oracle.index.slot_arrays()
        for name, ours, theirs in zip(
            ("edge", "phi", "phi(e, G)", "sup"),
            (edge, phi, edge_w, sup),
            fresh.slot_arrays(),
        ):
            assert ours.tobytes() == theirs.tobytes(), name
        verify_index(oracle)  # every witness attains its weight


@CASES
@pytest.mark.xfail(
    strict=True,
    reason="on a tie DCH± keeps a valid witness that the build's tie rule "
    "would not pick (CHANGES.md, FOUND)",
)
def test_via_matches_fresh_reweigh(facade, graph):
    for oracle, fresh in maintained_and_fresh(facade, graph):
        ours, theirs = oracle.index.slot_arrays()[4], fresh.slot_arrays()[4]
        assert ours.tobytes() == theirs.tobytes()

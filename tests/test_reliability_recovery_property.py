"""Property test: crash anywhere, recover, and distances stay ground truth.

For *any* sequence of update batches, *any* checkpoint and *any* crash
point after it, recovering from the last snapshot plus the write-ahead
log must yield an oracle — CH or H2H, undirected or directed —

* whose graph equals the pre-crash graph,
* whose index matches the pre-crash index entry for entry (maintenance
  is deterministic, so snapshot + replay is exact), and
* whose distances agree with a fresh :class:`DijkstraOracle` on the
  final graph.

Weights are drawn from a dyadic grid (multiples of 0.25) so every sum
of path weights is exact in binary floating point and distance equality
is well-defined; ``inf`` (a closed road, which a later batch may reopen)
is drawn too.
"""

from __future__ import annotations

import math
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle
from repro.directed import DiRoadNetwork, DynamicDiCH, DynamicDiH2H, directed_dijkstra
from repro.graph.generators import grid_network
from repro.reliability import ReliableStore, verify_index

from conftest import random_pairs


BASE_GRAPH = grid_network(3, 3, seed=5)
EDGES = sorted((u, v) for u, v, _ in BASE_GRAPH.edges())
BASE_DIGRAPH = DiRoadNetwork.from_undirected(BASE_GRAPH, asymmetry=2.0)
ARCS = sorted((u, v) for u, v, _ in BASE_DIGRAPH.arcs())

# One weight: dyadic, or a closed road.
weight_strategy = st.one_of(
    st.integers(min_value=1, max_value=64).map(lambda q: q / 4.0),
    st.just(math.inf),
)


def batch_strategy(keys):
    """A non-empty subset of *keys* (edges or arcs), each with a fresh
    weight."""
    return st.dictionaries(
        st.sampled_from(keys), weight_strategy, min_size=1, max_size=4
    ).map(lambda d: [((u, v), w) for (u, v), w in sorted(d.items())])


def crash_scenario(keys):
    @st.composite
    def scenario(draw):
        batches = draw(st.lists(batch_strategy(keys), min_size=0, max_size=5))
        crash_point = draw(st.integers(min_value=0, max_value=len(batches)))
        checkpoint = draw(st.integers(min_value=0, max_value=crash_point))
        return batches, checkpoint, crash_point

    return scenario()


def run_scenario(oracle_cls, base, scenario):
    batches, checkpoint, crash_point = scenario
    oracle = oracle_cls(base.copy())
    with tempfile.TemporaryDirectory() as root:
        store = ReliableStore(root)
        store.checkpoint(oracle)
        for step, batch in enumerate(batches[:crash_point]):
            if step == checkpoint:
                store.checkpoint(oracle)
            store.log(batch)
            oracle.apply(batch)

        # Crash: in-memory oracle is gone; reconstruct purely from disk.
        result = store.recover()
        recovered = result.oracle

    assert recovered.graph == oracle.graph
    live_sc = getattr(oracle.index, "sc", oracle.index)
    rec_sc = getattr(recovered.index, "sc", recovered.index)
    assert rec_sc.weight_snapshot() == live_sc.weight_snapshot()
    assert rec_sc.support_snapshot() == live_sc.support_snapshot()
    verify_index(recovered)

    if isinstance(base, DiRoadNetwork):
        def ground(s, t):
            return directed_dijkstra(recovered.graph, s)[t]
    else:
        ground = DijkstraOracle(recovered.graph).distance
    for s, t in random_pairs(recovered.graph.n, 10, seed=17):
        assert recovered.distance(s, t) == ground(s, t)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_scenario(EDGES))
def test_ch_recovery_matches_dijkstra(scenario):
    run_scenario(DynamicCH, BASE_GRAPH, scenario)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_scenario(EDGES))
def test_h2h_recovery_matches_dijkstra(scenario):
    run_scenario(DynamicH2H, BASE_GRAPH, scenario)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_scenario(ARCS))
def test_directed_ch_recovery_matches_dijkstra(scenario):
    run_scenario(DynamicDiCH, BASE_DIGRAPH, scenario)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_scenario(ARCS))
def test_directed_h2h_recovery_matches_dijkstra(scenario):
    run_scenario(DynamicDiH2H, BASE_DIGRAPH, scenario)

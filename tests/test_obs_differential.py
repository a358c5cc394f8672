"""Differential test: tracing must not change maintenance results.

Runs the same update workload twice on identically-built oracles —
once with a MemorySink attached, once with tracing off — and asserts
the final index state is bit-identical (every weight, support, witness
and, for H2H, every ``dis``/``sup`` matrix entry).  This is the
guarantee that lets the spans stay compiled into the hot paths
permanently: observation may never perturb the observed.
"""

import numpy as np
import pytest

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.graph.generators import road_network
from repro.obs import names
from repro.obs.trace import MemorySink, use_sink, validate_record


def _workload(graph, rng_seed=7):
    """A deterministic mixed increase/decrease batch sequence."""
    import random

    rng = random.Random(rng_seed)
    edges = sorted(graph.edges())
    batches = []
    for scale in (2.5, 0.4, 1.7):  # increase, decrease, increase
        chosen = rng.sample(edges, 4)
        batches.append([((u, v), w * scale) for (u, v, w) in chosen])
    return batches


def _assert_identical(plain, traced):
    a, b = plain.index, traced.index
    if hasattr(a, "dis"):
        assert np.array_equal(a.dis, b.dis)
        assert np.array_equal(a.sup, b.sup)
        a, b = a.sc, b.sc
    assert a.weight_snapshot() == b.weight_snapshot()
    assert a.support_snapshot() == b.support_snapshot()
    assert a.via_snapshot() == b.via_snapshot()
    assert a.edge_weights() == b.edge_weights()


@pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
def test_instrumented_run_is_bit_identical(oracle_cls):
    network = road_network(120, seed=2022)
    plain = oracle_cls(network.copy())
    traced = oracle_cls(network.copy())
    sink = MemorySink()

    for batch in _workload(network):
        plain.apply(list(batch))
        with use_sink(sink):
            traced.apply(list(batch))
        _assert_identical(plain, traced)

    # Tracing actually happened, with schema-clean records of the
    # catalogued maintenance spans.
    assert sink.records
    for record in sink.records:
        validate_record(record)
        assert record["span"] in names.SPANS
        assert record["ok"] is True

    # Queries agree too (belt and braces: dis matrices already match).
    for s, t in [(0, 119), (3, 77), (50, 51)]:
        assert plain.distance(s, t) == traced.distance(s, t)


def test_traced_records_carry_boundedness_currencies():
    network = road_network(80, seed=5)
    oracle = DynamicCH(network.copy())
    (u, v, w) = sorted(network.edges())[0]
    sink = MemorySink()
    with use_sink(sink):
        oracle.apply([((u, v), w * 3.0)])
    top = [r for r in sink.records if r["span"] == names.SPAN_DCH_INCREASE]
    assert top, [r["span"] for r in sink.records]
    record = top[0]
    for field in ("delta", "changed", "aff_norm", "diff", "ops_total"):
        assert field in record, field
    assert record["delta"] == 1
    assert record["aff_norm"] >= record["changed"] >= 0
    assert isinstance(record["ops"], dict)

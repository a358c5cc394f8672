"""The ``repro perf-bench`` harness: maintenance-path performance.

Where ``repro serve-bench`` measures the *read* path (cached queries),
this harness measures the *write* path the tentpole optimizations
target, on one seeded road network:

* **update latency** — wall time of single-update ``IncH2H`` applies
  (an increase immediately restored by a decrease, so every sample
  starts from the same index state), reported as exact percentiles;
* **batch coalescing** — the same raw re-report stream applied one
  update at a time vs once through
  :func:`repro.perf.coalesce.coalesce_updates`; ``batch_speedup`` is
  the committed acceptance number (>= 2x on the tier-1 network).

Everything is seeded; the result lands as ``BENCH_inch2h.json`` via
:func:`repro.obs.bench.write_bench` and feeds the bench-trajectory CI
gate next to the serving records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import List

from repro.core.dynamic import DynamicH2H
from repro.graph.generators import road_network
from repro.obs.bench import BenchRecord, latency_percentiles
from repro.workloads.updates import sample_edges

__all__ = ["PerfBenchConfig", "perf_bench"]


@dataclass(frozen=True)
class PerfBenchConfig:
    """Knobs of one perf-bench run, all seeded / deterministic."""

    vertices: int = 400
    seed: int = 7
    latency_updates: int = 60  #: single-update latency samples
    factor: float = 2.0  #: weight-increase factor per sampled update
    stream_edges: int = 16  #: distinct edges in the coalescing stream
    stream_reports: int = 3  #: re-reports per edge in the raw stream


def _pairs(edges) -> List:
    """Drop the weight from ``sample_edges``'s ``(u, v, w)`` triples."""
    return [(u, v) for u, v, _w in edges]


def _stream(graph, pairs, reports: int) -> List:
    """A deterministic re-report stream: every edge reported *reports*
    times with growing weights (net effect: one increase per edge)."""
    base = {(u, v): graph.weight(u, v) for u, v in pairs}
    return [
        (pair, base[pair] * (1.2 + 0.4 * rep))
        for rep in range(reports)
        for pair in pairs
    ]


def perf_bench(config: PerfBenchConfig = PerfBenchConfig()) -> BenchRecord:
    """Run one maintenance-path benchmark; see the module docstring."""
    rng = random.Random(config.seed)
    graph = road_network(config.vertices, seed=config.seed)
    t0 = perf_counter()
    oracle = DynamicH2H(graph)
    build_s = perf_counter() - t0

    # Phase 1: single-update latency.  Each sample applies one increase
    # and immediately restores it with the matching decrease, so every
    # timed apply starts from the same index state; both directions are
    # timed (the restore exercises IncH2H-).
    samples: List[float] = []
    for edge in _pairs(sample_edges(graph, config.latency_updates, rng=rng)):
        old_w = graph.weight(*edge)
        t0 = perf_counter()
        oracle.apply([(edge, old_w * config.factor)])
        samples.append(perf_counter() - t0)
        t0 = perf_counter()
        oracle.apply([(edge, old_w)])
        samples.append(perf_counter() - t0)

    # Phase 2: batch coalescing.  The same raw stream, applied one
    # publish per update vs one coalesced apply, each on its own clone
    # so both start from identical state; the clones' final states are
    # identical too (asserted by tests/test_perf_coalesce.py, so the
    # bench only prices it).
    edges = _pairs(sample_edges(graph, config.stream_edges, rng=rng))
    stream = _stream(graph, edges, config.stream_reports)
    seq_oracle = oracle.clone()
    t0 = perf_counter()
    for update in stream:
        seq_oracle.apply([update])
    sequential_s = perf_counter() - t0
    batch_oracle = oracle.clone()
    t0 = perf_counter()
    batch_oracle.apply(stream, coalesce=True)
    batched_s = perf_counter() - t0
    coalescing = {
        "raw_updates": len(stream),
        "distinct_edges": len(edges),
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "sequential_updates_per_s": len(stream) / sequential_s,
        "batched_updates_per_s": len(stream) / batched_s,
        "batch_speedup": sequential_s / batched_s,
    }

    index = oracle.index
    return BenchRecord(
        name="inch2h",
        config=dict(config.__dict__),
        latency_us=latency_percentiles(samples),
        throughput_qps=coalescing["batched_updates_per_s"],
        index={
            "shortcuts": float(index.sc.num_shortcuts),
            "super_shortcuts": float(index.num_super_shortcuts()),
            "size_bytes": float(index.size_in_bytes()),
        },
        extra={
            "build_s": build_s,
            "coalescing": coalescing,
        },
    )

"""Workloads and metrics of the benchmark — the source of BENCHMARK.json.

Every run of every workload reports every metric listed here: the
end-to-end metrics from an untraced run, the per-layer metrics from a
traced one.  Each workload therefore runs all three client phases
(per-call reads, ``query_many`` batches, publishes); what differs is the
graph, the index and the traffic shape, which decide which layers do
the work.

Per-layer metrics are named by role, not by index (``oracle.*`` is
:class:`~repro.core.dynamic.DynamicH2H` on the H2H workloads and
:class:`~repro.core.dynamic.DynamicCH` on ``ch-traffic``), so that every
metric is measured on every workload.  The one H2H-only layer,
``h2h.tree.lca_share`` (time in ``TreeDecomposition.lca`` as a share of
``oracle.query_us``), reads 0 on ``ch-traffic``.  ``LAYER_TARGETS`` records which
end-to-end metric each layer metric should move, and on which workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  #: graph from repro.experiments.datasets ("default" profile)
    oracle: str  #: "h2h" or "ch"
    kind: str  #: "read" or "traffic" (see perfbench/workloads.py)
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "h2h-read", "CAL", "h2h", "read",
            "Read path: uniform pairs on CAL (n~9.5k) miss the 65,536-pair "
            "cache, per call and in query_many batches; one-edge publishes run "
            "between cycles, never during a timed read.",
        ),
        Workload(
            "h2h-traffic", "NY", "h2h", "traffic",
            "Publish path: rounds of a 2-edge x2 congestion publish or its "
            "restore (IncH2H+-), then 38 YCSB-B Zipf(0.99) reads of a 4,096-pair "
            "hot set, ~40% of them cache hits.",
        ),
        Workload(
            "ch-traffic", "NY", "ch", "traffic",
            "The h2h-traffic stream over DCH: cheap publishes, but CH's coarse "
            "V_aff evicts most of the cache, so misses are CH searches.",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    bound: float = 0.0  #: end-to-end only: allowed worsening, share of median


#: Bounds: the timings are scaled to a reference host speed (see
#: perfbench/report.py), which takes out most of a shared 2-core host's
#: speed changes; what is left spreads up to about a tenth, tails most.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_p50_us", "us", "lower", 0.25),
    Metric("query_p99_us", "us", "lower", 0.25),
    Metric("query_qps", "1/s", "higher", 0.25),
    Metric("batch_pair_qps", "1/s", "higher", 0.25),
    Metric("publish_p50_ms", "ms", "lower", 0.25),
    Metric("publish_p90_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: Printed with the end-to-end table but not gated.  ``updates_per_s``
#: spreads more than its bound (see perfbench/report.py);
#: ``failed_op_share`` is 0 on a correct run, and the result line carries
#: it as ``failed`` / ``attempted``.
UPDATES_PER_S = Metric("updates_per_s", "1/s", "higher")
FAILED_OP_SHARE = Metric("failed_op_share", "ratio", "lower")

PER_LAYER: List[Metric] = [
    Metric("oracle.query_us", "us", "lower"),
    Metric("h2h.tree.lca_share", "ratio", "lower"),
    Metric("oracle.query.work_per_call", "count", "lower"),
    Metric("serve.query.self_us", "us", "lower"),
    Metric("serve.cache.get_us", "us", "lower"),
    Metric("serve.cache.put_us", "us", "lower"),
    Metric("serve.cache.hit_rate", "ratio", "higher"),
    Metric("serve.cache.lru_evictions", "count", "lower"),
    Metric("obs.registry_us_per_query", "us", "lower"),
    Metric("obs.registry.series", "count", "lower"),
    Metric("serve.query_many.pair_us", "us", "lower"),
    Metric("serve.query_many.overhead_share", "ratio", "lower"),
    Metric("perf.coalesce_ms", "ms", "lower"),
    Metric("core.clone_ms", "ms", "lower"),
    Metric("reliability.txn_snapshot_ms", "ms", "lower"),
    Metric("reliability.cow_apply_ms", "ms", "lower"),
    Metric("oracle.maint_ms", "ms", "lower"),
    Metric("oracle.maint.ops_per_publish", "count", "lower"),
    Metric("oracle.maint.aff_norm_per_publish", "count", "lower"),
    Metric("oracle.maint.diff_per_publish", "count", "lower"),
    Metric("oracle.maint.ops_per_aff_budget", "ratio", "lower"),
    Metric("serve.aff_ms", "ms", "lower"),
    Metric("serve.aff.vertex_share", "ratio", "lower"),
    Metric("serve.cache.migrate_ms", "ms", "lower"),
    Metric("serve.cache.carried_share", "ratio", "higher"),
    Metric("serve.epoch.publish_ms", "ms", "lower"),
    Metric("serve.publish.self_ms", "ms", "lower"),
    Metric("bench.trace_overhead.query_pct", "%", "lower"),
    Metric("bench.trace_overhead.publish_pct", "%", "lower"),
]

_READ = "query_p50_us, query_qps"
#: layer metric -> (end-to-end metrics it should move, workloads it moves on)
LAYER_TARGETS: Dict[str, Tuple[str, str]] = {
    "oracle.query_us": (_READ + ", query_p99_us", "h2h-read; ch-traffic (p99)"),
    "h2h.tree.lca_share": (_READ, "h2h-read; 0 on ch-traffic (CH has no tree)"),
    "oracle.query.work_per_call": (_READ + ", query_p99_us", "h2h-read; ch-traffic (p99)"),
    "serve.query.self_us": ("query_p50_us", "all"),
    "serve.cache.get_us": ("query_p50_us", "h2h-read (miss), traffic (hit)"),
    "serve.cache.put_us": ("query_p50_us", "h2h-read (miss path)"),
    "serve.cache.hit_rate": ("query_p50_us, query_p99_us", "traffic"),
    "serve.cache.lru_evictions": ("query_p50_us", "h2h-read"),
    "obs.registry_us_per_query": ("query_p50_us, peak_rss_mb", "all"),
    "obs.registry.series": ("peak_rss_mb", "traffic (series per epoch)"),
    "serve.query_many.pair_us": ("batch_pair_qps", "h2h-read"),
    "serve.query_many.overhead_share": ("batch_pair_qps", "h2h-read"),
    "perf.coalesce_ms": ("publish_p50_ms, updates_per_s", "traffic"),
    "core.clone_ms": ("publish_p50_ms, updates_per_s", "all publishes"),
    "reliability.txn_snapshot_ms": ("publish_p50_ms, updates_per_s", "all publishes"),
    "reliability.cow_apply_ms": ("publish_p50_ms, updates_per_s", "all publishes"),
    "oracle.maint_ms": (
        "publish_p50_ms, publish_p90_ms", "h2h-traffic (IncH2H), ch-traffic (DCH)"
    ),
    "oracle.maint.ops_per_publish": ("publish_p50_ms, publish_p90_ms", "h2h-traffic, ch-traffic"),
    "oracle.maint.aff_norm_per_publish": ("publish_p50_ms", "h2h-traffic, ch-traffic"),
    "oracle.maint.diff_per_publish": ("publish_p50_ms", "h2h-traffic, ch-traffic"),
    "oracle.maint.ops_per_aff_budget": (
        "publish_p50_ms, publish_p90_ms", "h2h-traffic (Thm 5.1), ch-traffic (Thm 4.1)"
    ),
    "serve.aff_ms": ("publish_p50_ms", "ch-traffic mostly"),
    "serve.aff.vertex_share": ("query_p99_us (via hit rate)", "ch-traffic mostly"),
    "serve.cache.migrate_ms": ("publish_p50_ms", "traffic; h2h-read (full cache)"),
    "serve.cache.carried_share": ("query_p99_us (via hit rate)", "ch-traffic mostly"),
    "serve.epoch.publish_ms": ("publish_p50_ms", "traffic"),
    "serve.publish.self_ms": ("publish_p50_ms", "traffic"),
    "bench.trace_overhead.query_pct": ("none (budget for the shims)", "all"),
    "bench.trace_overhead.publish_pct": ("none (budget for the shims)", "all"),
}


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"

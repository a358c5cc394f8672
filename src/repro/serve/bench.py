"""The ``repro serve-bench`` harness: measure serving under updates.

One self-contained run: synthesize a network, build an oracle, stand a
:class:`DistanceServer` up, then interleave repeated query passes with
update batches.  Three timings come out:

* *baseline* — the same query passes straight against the oracle, no
  cache (what every repeated query costs without the serving layer);
* *cold* — the first pass through the server (all misses: query cost
  plus cache bookkeeping);
* *warm* — subsequent passes (all hits).

``speedup = baseline_per_query / warm_per_query`` is the cached-hit
payoff the acceptance criteria gate on (>= 5x), and the per-publish
carried/evicted counts show AFF-scoped invalidation keeping the cache
warm across updates.  A label oracle (``--oracle h2h``) is served
without a cache, so its cold and warm passes are label reads, its
speedup is about 1x and it carries and evicts nothing.  Everything is
seeded — two runs with the same arguments produce the same workload.

:func:`overload_bench` (``repro serve-bench --overload``) is the
degraded-tier companion (``docs/degraded-mode.md``): it floods two
servers with the identical minor-update stream — one exact, one behind
a :class:`DegradePolicy` — and measures the sustained update throughput
of degraded admission against the exact baseline, the catch-up cost,
and (differentially, against per-state Dijkstra ground truth) that no
answer ever exceeded its stamped max-stretch across the
degraded → catch-up → healthy transitions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Tuple

from repro.core.bounds import subboundedness_ratio
from repro.core.changed import ch_change_metrics, h2h_change_metrics
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle
from repro.errors import ReproError
from repro.graph.generators import road_network
from repro.obs.bench import BenchRecord, latency_percentiles
from repro.obs.slo import SLOEngine, default_rules
from repro.reliability.degrade import DegradePolicy, OracleState, check_stretch
from repro.serve.server import DistanceServer
from repro.workloads.updates import increase_batch, sample_edges

__all__ = [
    "BenchConfig",
    "BenchResult",
    "OverloadResult",
    "overload_bench",
    "serve_bench",
]

_ORACLES = {
    "ch": DynamicCH,
    "h2h": DynamicH2H,
    "dijkstra": DijkstraOracle,
}


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one serve-bench run, all seeded / deterministic (DESIGN.md §4b)."""

    oracle: str = "ch"
    vertices: int = 400
    seed: int = 7
    queries: int = 300  #: distinct (s, t) pairs per pass
    repeats: int = 5  #: warm passes measured
    updates: int = 3  #: update batches applied mid-run
    batch: int = 8  #: edges per update batch
    factor: float = 2.0  #: weight-increase factor of each batch
    workers: int = 4
    cache_capacity: int = 65536
    throughput_edges: int = 16  #: edges in the update-throughput phase (0 = skip)
    throughput_reports: int = 3  #: re-reports per edge in the raw stream
    # Overload-scenario knobs (used by overload_bench only).
    overload_batches: int = 40  #: minor-update batches flooding the server
    overload_batch: int = 8  #: edges per overload batch
    overload_factor: float = 1.15  #: per-update weight factor (< threshold_c)
    threshold_c: float = 1.25  #: deferral threshold (DegradePolicy)
    high_watermark: int = 4  #: backlog depth that enters degraded mode
    low_watermark: int = 1  #: backlog depth that triggers the catch-up
    stretch_queries: int = 1200  #: differential queries across the transitions


@dataclass
class BenchResult:
    """What one serve-bench run measured; feeds ``BENCH_<name>.json``
    (docs/observability.md) with the Theorem 4.1/5.1 ratio block."""

    config: BenchConfig
    build_s: float
    baseline_per_query_s: float
    cold_per_query_s: float
    warm_per_query_s: float
    publishes: List[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    #: Per-query wall times of one all-hit sampling pass, in seconds.
    hit_latency_samples_s: List[float] = field(default_factory=list, repr=False)
    #: Mean boundedness ratios across the update batches (Thm 4.1/5.1).
    ratios: dict = field(default_factory=dict)
    #: Index size figures (shortcuts, super-shortcuts, bytes).
    index: dict = field(default_factory=dict)
    #: Update-throughput phase: per-update publishes vs one coalesced
    #: publish of the same raw stream (empty when the phase is skipped).
    update_throughput: dict = field(default_factory=dict)
    #: The server's MetricsRegistry snapshot (``repro obs metrics-dump``).
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def speedup(self) -> float:
        """Cached-hit speedup vs uncached repeated queries."""
        if self.warm_per_query_s <= 0:
            return float("inf")
        return self.baseline_per_query_s / self.warm_per_query_s

    @property
    def throughput_qps(self) -> float:
        """Warm-path serving throughput (queries per second)."""
        if self.warm_per_query_s <= 0:
            return float("inf")
        return 1.0 / self.warm_per_query_s

    def as_dict(self) -> dict:
        return {
            "config": self.config.__dict__,
            "build_s": self.build_s,
            "baseline_per_query_us": self.baseline_per_query_s * 1e6,
            "cold_per_query_us": self.cold_per_query_s * 1e6,
            "warm_per_query_us": self.warm_per_query_s * 1e6,
            "speedup": self.speedup,
            "throughput_qps": self.throughput_qps,
            "latency_us": latency_percentiles(self.hit_latency_samples_s),
            "ratios": self.ratios,
            "index": self.index,
            "update_throughput": self.update_throughput,
            "publishes": self.publishes,
            "stats": self.stats,
        }

    def to_bench_record(self, name: str = "serve") -> BenchRecord:
        """This run in the shared BENCH shape (see :mod:`repro.obs.bench`)."""
        return BenchRecord(
            name=name,
            config=dict(self.config.__dict__),
            latency_us=latency_percentiles(self.hit_latency_samples_s),
            throughput_qps=self.throughput_qps,
            ratios=dict(self.ratios),
            index=dict(self.index),
            extra={
                "build_s": self.build_s,
                "baseline_per_query_us": self.baseline_per_query_s * 1e6,
                "cold_per_query_us": self.cold_per_query_s * 1e6,
                "warm_per_query_us": self.warm_per_query_s * 1e6,
                "speedup": self.speedup,
                "update_throughput": dict(self.update_throughput),
            },
        )


def _index_stats(oracle) -> dict:
    """Size figures of the oracle's index (empty for index-free oracles)."""
    index = getattr(oracle, "index", None)
    if index is None:
        return {}
    stats = {}
    sc = getattr(index, "sc", index)
    if hasattr(sc, "num_shortcuts"):
        stats["shortcuts"] = float(sc.num_shortcuts)
    if hasattr(index, "num_super_shortcuts"):
        count = index.num_super_shortcuts  # property on some indexes, method on others
        stats["super_shortcuts"] = float(count() if callable(count) else count)
    if hasattr(index, "size_in_bytes"):
        stats["size_bytes"] = float(index.size_in_bytes())
    return stats


def _publish_ratios(oracle, report) -> dict:
    """Boundedness currencies + ratios of one published update batch.

    ``ops_per_aff_budget`` / ``ops_per_diff_budget`` are the Theorem
    4.1/5.1 ratios (ops over the linearithmic budget of ||AFF|| resp.
    |DIFF|).  For H2H oracles the UpdateReport does not carry the inner
    changed-shortcut list, so ||AFF||/|DIFF| are computed from the
    super-shortcut changes alone — an indicator that tracks (and
    understates) the full Section 5 quantities.
    """
    index = getattr(oracle, "index", None)
    if index is None:
        return {}
    delta = report.increases + report.decreases
    ops_total = float(sum(report.ops.values()))
    if hasattr(index, "tree"):
        metrics = h2h_change_metrics(
            index, delta, report.changed_shortcuts, report.changed_super_shortcuts
        )
    elif hasattr(index, "scp_minus"):
        metrics = ch_change_metrics(index, delta, report.changed_shortcuts)
    else:
        return {}
    return {
        "aff_norm": float(metrics.aff_norm),
        "diff": float(metrics.diff),
        "ops_total": ops_total,
        "ops_per_aff_budget": subboundedness_ratio(ops_total, metrics.aff_norm),
        "ops_per_diff_budget": subboundedness_ratio(ops_total, metrics.diff),
    }


def _query_pairs(n: int, count: int, rng: random.Random) -> List[Tuple[int, int]]:
    pairs = []
    for _ in range(count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        pairs.append((s, t))
    return pairs


def serve_bench(config: BenchConfig = BenchConfig()) -> BenchResult:
    """Run one serving benchmark; see the module docstring."""
    if config.oracle not in _ORACLES:
        raise ReproError(
            f"unknown oracle {config.oracle!r}; pick one of {sorted(_ORACLES)}"
        )
    rng = random.Random(config.seed)
    graph = road_network(config.vertices, seed=config.seed)
    t0 = perf_counter()
    oracle = _ORACLES[config.oracle](graph)
    build_s = perf_counter() - t0
    pairs = _query_pairs(graph.n, config.queries, rng)

    # Baseline: uncached repeated queries straight at the oracle.
    t0 = perf_counter()
    for _ in range(config.repeats):
        for s, t in pairs:
            oracle.distance(s, t)
    baseline = (perf_counter() - t0) / (config.repeats * len(pairs))

    with DistanceServer(
        oracle,
        cache_capacity=config.cache_capacity,
        workers=config.workers,
    ) as server:
        # Cold pass: every pair misses once.
        t0 = perf_counter()
        for s, t in pairs:
            server.distance(s, t)
        cold = (perf_counter() - t0) / len(pairs)

        # Warm passes: every pair hits.
        t0 = perf_counter()
        for _ in range(config.repeats):
            for s, t in pairs:
                server.distance(s, t)
        warm = (perf_counter() - t0) / (config.repeats * len(pairs))

        # Sampling pass: per-query wall times for exact percentiles
        # (separate from the warm aggregate so the timing calls do not
        # pollute the warm_per_query figure).
        samples: List[float] = []
        for s, t in pairs:
            t0 = perf_counter()
            server.distance(s, t)
            samples.append(perf_counter() - t0)

        # Updates interleaved with query passes: show AFF-scoped
        # migration keeping the cache warm across epochs.
        publishes: List[dict] = []
        ratio_rows: List[dict] = []
        for i in range(config.updates):
            edges = sample_edges(
                server.snapshot().graph, config.batch, rng=rng
            )
            report = server.apply(increase_batch(edges, config.factor))
            t0 = perf_counter()
            answers = server.query_many(pairs)
            pass_s = perf_counter() - t0
            row = {
                "epoch": report.epoch,
                "affected": report.affected,
                "carried": report.carried,
                "evicted": report.evicted,
                "pass_per_query_us": pass_s / len(answers) * 1e6,
            }
            ratios = _publish_ratios(server.snapshot().oracle, report.report)
            if ratios:
                row["boundedness"] = ratios
                ratio_rows.append(ratios)
            publishes.append(row)
        mean_ratios = {
            key: sum(row[key] for row in ratio_rows) / len(ratio_rows)
            for key in (ratio_rows[0] if ratio_rows else {})
        }

        # Update-throughput phase: the same raw re-report stream applied
        # one publish per update vs one coalesced publish.  The restore
        # batch between the two measurements puts the weights back, so
        # both runs start (and end) at identical state.
        update_throughput: dict = {}
        if config.throughput_edges > 0 and config.throughput_reports > 0:
            t_graph = server.snapshot().graph
            base_w = {
                (u, v): t_graph.weight(u, v)
                for u, v, _w in sample_edges(
                    t_graph, config.throughput_edges, rng=rng
                )
            }
            stream = [
                (edge, weight * (1.2 + 0.4 * rep))
                for rep in range(config.throughput_reports)
                for edge, weight in base_w.items()
            ]
            t0 = perf_counter()
            for update in stream:
                server.apply([update], coalesce=False)
            sequential_s = perf_counter() - t0
            server.apply([(edge, w) for edge, w in base_w.items()])
            t0 = perf_counter()
            server.apply(stream, coalesce=True)
            batched_s = perf_counter() - t0
            update_throughput = {
                "raw_updates": len(stream),
                "distinct_edges": len(base_w),
                "sequential_s": sequential_s,
                "batched_s": batched_s,
                "sequential_updates_per_s": len(stream) / sequential_s,
                "batched_updates_per_s": len(stream) / batched_s,
                "batch_speedup": sequential_s / batched_s,
            }

        index_stats = _index_stats(server.snapshot().oracle)
        stats = server.stats()
        metrics_snapshot = server.metrics.snapshot()

    return BenchResult(
        config=config,
        build_s=build_s,
        baseline_per_query_s=baseline,
        cold_per_query_s=cold,
        warm_per_query_s=warm,
        publishes=publishes,
        stats=stats,
        hit_latency_samples_s=samples,
        ratios=mean_ratios,
        index=index_stats,
        update_throughput=update_throughput,
        metrics=metrics_snapshot,
    )


@dataclass
class OverloadResult:
    """What one overload run measured; feeds ``BENCH_serve_degraded.json``.

    The acceptance gates (ISSUE 6 / docs/degraded-mode.md): degraded
    admission must sustain >= 3x the exact baseline's update throughput
    with ``max_epsilon <= threshold_c - 1``, and the differential sweep
    must find zero stretch-bound violations.
    """

    config: BenchConfig
    build_s: float
    #: Exact baseline: every batch published through full maintenance.
    exact_s: float = 0.0
    exact_updates: int = 0
    #: Degraded phase: batches pumped while admission was in overload.
    degraded_s: float = 0.0
    degraded_updates: int = 0
    degraded_publishes: int = 0
    #: Largest ε observed at any point of the degraded phase.
    max_epsilon: float = 0.0
    #: The catch-up apply that folded the journal back in.
    catchup_s: float = 0.0
    caught_up: int = 0
    #: Healthy tail: exact applies after the catch-up.
    healthy_s: float = 0.0
    healthy_updates: int = 0
    #: Differential stretch sweep, one row per phase (see _stretch_sweep).
    stretch: dict = field(default_factory=dict)
    #: Per-query wall times of the bounded-query sweeps, in seconds.
    query_samples_s: List[float] = field(default_factory=list, repr=False)
    stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict, repr=False)
    #: Registry snapshot taken mid-run, while the server was degraded —
    #: ``repro obs slo`` against this must exit 3 (alerts firing), and
    #: against the final ``metrics`` must exit 0 (alerts cleared).
    metrics_degraded: dict = field(default_factory=dict, repr=False)
    #: The run's SLO engine report: rules, final verdicts, transitions.
    slo: dict = field(default_factory=dict)

    @property
    def exact_updates_per_s(self) -> float:
        return self.exact_updates / self.exact_s if self.exact_s > 0 else 0.0

    @property
    def degraded_updates_per_s(self) -> float:
        if self.degraded_s <= 0:
            return 0.0
        return self.degraded_updates / self.degraded_s

    @property
    def speedup(self) -> float:
        """Sustained degraded update throughput over the exact baseline."""
        if self.exact_updates_per_s <= 0:
            return float("inf")
        return self.degraded_updates_per_s / self.exact_updates_per_s

    @property
    def epsilon_budget(self) -> float:
        """The ε ceiling the policy guarantees by construction."""
        return self.config.threshold_c - 1.0

    @property
    def total_violations(self) -> int:
        return sum(row["violations"] for row in self.stretch.values())

    @property
    def worst_stretch(self) -> float:
        if not self.stretch:
            return 0.0
        return max(row["worst_stretch"] for row in self.stretch.values())

    def as_dict(self) -> dict:
        return {
            "config": self.config.__dict__,
            "build_s": self.build_s,
            "exact": {
                "updates": self.exact_updates,
                "seconds": self.exact_s,
                "updates_per_s": self.exact_updates_per_s,
            },
            "degraded": {
                "updates": self.degraded_updates,
                "seconds": self.degraded_s,
                "updates_per_s": self.degraded_updates_per_s,
                "publishes": self.degraded_publishes,
                "max_epsilon": self.max_epsilon,
                "epsilon_budget": self.epsilon_budget,
            },
            "catchup": {"folded": self.caught_up, "seconds": self.catchup_s},
            "healthy": {
                "updates": self.healthy_updates,
                "seconds": self.healthy_s,
            },
            "speedup": self.speedup,
            "stretch": self.stretch,
            "latency_us": latency_percentiles(self.query_samples_s),
            "stats": self.stats,
            "slo": self.slo,
        }

    def to_bench_record(self, name: str = "serve_degraded") -> BenchRecord:
        """This run in the shared BENCH shape.  ``throughput_qps`` is
        the degraded-phase sustained update throughput — the figure the
        exit-3 regression gate watches — and ``latency_us`` the
        bounded-query percentiles across all three sweep phases."""
        return BenchRecord(
            name=name,
            config=dict(self.config.__dict__),
            latency_us=latency_percentiles(self.query_samples_s),
            throughput_qps=self.degraded_updates_per_s,
            ratios={},
            index={},
            extra={
                "build_s": self.build_s,
                "exact_updates_per_s": self.exact_updates_per_s,
                "degraded_updates_per_s": self.degraded_updates_per_s,
                "speedup": self.speedup,
                "max_epsilon": self.max_epsilon,
                "epsilon_budget": self.epsilon_budget,
                "catchup_s": self.catchup_s,
                "caught_up": self.caught_up,
                "stretch_queries": sum(
                    row["queries"] for row in self.stretch.values()
                ),
                "stretch_violations": self.total_violations,
                "worst_stretch": self.worst_stretch,
                "stretch": dict(self.stretch),
            },
        )


def _stretch_sweep(
    server: DistanceServer,
    truth: DijkstraOracle,
    count: int,
    rng: random.Random,
    samples: List[float],
) -> dict:
    """Differentially check *count* bounded answers against per-state
    Dijkstra ground truth; returns the sweep's verdict row."""
    n = truth.graph.n
    violations = 0
    worst = 0.0
    for _ in range(count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        t0 = perf_counter()
        bounded = server.distance_bounded(s, t)
        samples.append(perf_counter() - t0)
        exact = truth.distance(s, t)
        if not check_stretch(bounded.distance, exact, bounded.max_stretch):
            violations += 1
        if (
            math.isfinite(exact)
            and math.isfinite(bounded.distance)
            and exact > 0
            and bounded.distance > 0
        ):
            worst = max(
                worst,
                max(bounded.distance / exact, exact / bounded.distance) - 1.0,
            )
    return {
        "queries": count,
        "violations": violations,
        "worst_stretch": worst,
        "epsilon": server.epsilon,
        "state": server.state.value,
    }


def overload_bench(config: BenchConfig = BenchConfig()) -> OverloadResult:
    """Run the overload scenario; see the module docstring.

    Both servers see the *identical* pre-generated batch sequence (same
    absolute target weights), so the throughput comparison is
    apples-to-apples and both end at the same final weights.
    """
    if config.oracle not in _ORACLES:
        raise ReproError(
            f"unknown oracle {config.oracle!r}; pick one of {sorted(_ORACLES)}"
        )
    rng = random.Random(config.seed)
    graph = road_network(config.vertices, seed=config.seed)
    t0 = perf_counter()
    base = _ORACLES[config.oracle](graph)
    build_s = perf_counter() - t0
    result = OverloadResult(config=config, build_s=build_s)

    # Pre-generate the batch stream against an evolving truth copy, so
    # each update's absolute target weight is fixed up front.
    plan_graph = graph.copy()
    batches: List[List] = []
    for _ in range(config.overload_batches):
        edges = sample_edges(plan_graph, config.overload_batch, rng=rng)
        batch = increase_batch(edges, config.overload_factor)
        for (u, v), w in batch:
            plan_graph.set_weight(u, v, w)
        batches.append(batch)
    total_updates = sum(len(batch) for batch in batches)

    # Exact baseline: one full maintenance publish per batch.
    with DistanceServer(base.clone(), workers=1) as exact_server:
        t0 = perf_counter()
        for batch in batches:
            exact_server.apply(batch)
        result.exact_s = perf_counter() - t0
        result.exact_updates = total_updates

    # Degraded run: flood the admission queue, then pump it dry.
    policy = DegradePolicy(
        threshold_c=config.threshold_c,
        high_watermark=config.high_watermark,
        low_watermark=config.low_watermark,
        max_batch_age_s=3600.0,  # depth, not age, drives this scenario
    )
    truth_graph = graph.copy()
    truth = DijkstraOracle(truth_graph)
    with DistanceServer(base.clone(), workers=1, degrade=policy) as server:
        # The SLO engine watches the degraded server's own registry, so
        # the snapshots below carry raw signals *and* judged verdicts.
        engine = SLOEngine(server.metrics, default_rules())
        for batch in batches:
            server.offer(batch)
        engine.tick()
        mid = len(batches) // 2
        sweep_share = max(1, config.stretch_queries // 3)
        for i, batch in enumerate(batches):
            t0 = perf_counter()
            report = server.pump()
            step_s = perf_counter() - t0
            engine.tick()
            # Ground truth advances exactly as fast as admission accepts.
            for (u, v), w in batch:
                truth_graph.set_weight(u, v, w)
            if report.caught_up:
                result.catchup_s += step_s
                result.caught_up += report.caught_up
                result.healthy_updates += len(batch)
            elif report.state == OracleState.DEGRADED_BOUNDED.value:
                result.degraded_s += step_s
                result.degraded_updates += len(batch)
                if report.report is not None:  # the major part was published
                    result.degraded_publishes += 1
                result.max_epsilon = max(result.max_epsilon, report.epsilon)
            else:
                result.healthy_s += step_s
                result.healthy_updates += len(batch)
            if i + 1 == mid:
                result.stretch["degraded"] = _stretch_sweep(
                    server, truth, sweep_share, rng, result.query_samples_s
                )
                # Snapshot the registry while degraded: ε > 0, journal
                # populated, backlog deep — the firing half of the SLO
                # fire-then-clear acceptance check.
                engine.evaluate()
                result.metrics_degraded = server.metrics.snapshot()
            if report.caught_up:
                result.stretch["catchup"] = _stretch_sweep(
                    server, truth, sweep_share, rng, result.query_samples_s
                )
        # Anything still parked (possible when the queue emptied before
        # the low watermark fired) folds in one final catch-up.
        tail = server.pump()
        if tail is not None and tail.caught_up:
            result.caught_up += tail.caught_up
        if "catchup" not in result.stretch:
            result.stretch["catchup"] = _stretch_sweep(
                server, truth, sweep_share, rng, result.query_samples_s
            )
        result.stretch["healthy"] = _stretch_sweep(
            server,
            truth,
            max(1, config.stretch_queries - 2 * sweep_share),
            rng,
            result.query_samples_s,
        )
        result.slo = engine.report()
        result.stats = server.stats()
        result.metrics = server.metrics.snapshot()
    return result

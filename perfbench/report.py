"""Turn pass results into the named metrics of :mod:`perfbench.spec`.

On a shared 2-vCPU Xeon VM the same code runs at two speeds about 1.4x
apart, depending on whether the core it lands on shares its physical
core with a busy neighbour; which one a call gets changes from second
to second and from run to run.  Thread CPU time slows down with wall
time (no time is stolen), so neither clock removes it.  The end-to-end
metrics are therefore stated at a reference host speed:

* :func:`~perfbench.client.host_probe` times a fixed integer loop right
  before and right after every timed call (a build, a ``reads`` loop, a
  ``query_many`` batch, a publish); the mean of the two is the call's
  host time.  Around a ``query_many`` batch, whose work the server's
  worker threads spread over the cores, the probe runs on each core in
  turn (:func:`~perfbench.client.host_probe_all`);
* every timed sample of the call is scaled by ``REF_PROBE_S`` over its
  host time, i.e. to the speed at which the probe takes ``REF_PROBE_S``.

The probe runs none of the program's code and allocates nothing the
cyclic collector tracks, so a change to the program moves the scaled
samples exactly as it moves the raw ones.  Every sample counts; none is
dropped.  Over the scaled samples:

* ``setup_s``: the median build;
* ``query_p50_us``: the median of every per-call read;
* ``query_p99_us``: the median, over windows of ``WINDOW_READS``
  consecutive reads, of each window's p99.  A tail that recurs in most
  windows counts in full, while a host episode the probe missed moves
  only the windows it covers; the p99 of all reads pooled is printed
  beside it;
* ``query_qps``: the reads over their loops' summed time;
  ``batch_pair_qps``: the ``query_many`` pairs over the batches' summed
  time;
* ``publish_p50_ms`` / ``publish_p90_ms``: percentiles of every publish
  of every pass; ``updates_per_s``: edge updates over the publishes'
  summed time (printed, not gated: a sum over a heavy-tailed step cost).

The same figures unscaled are printed beside them.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from perfbench import shims
from perfbench.client import PassResult

#: Read-path layers nested inside one ``distance_on`` call.
READ_CHILDREN = ("serve.cache.get", "serve.cache.put", "oracle.distance", "obs.registry")
#: Per-call reads per window of ``query_p99_us``.
WINDOW_READS = 1000
#: The probe's time at the reference host speed: about its time on the
#: faster of the two speeds of a 2 GHz Xeon vCPU.
REF_PROBE_S = 300e-6


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scales(hosts: Sequence[float], count: int, scaled: bool) -> np.ndarray:
    """Per call, the factor that takes its samples to the reference speed
    (1 when not *scaled*, or when the calls were not probed)."""
    if not scaled or len(hosts) != count:
        return np.ones(count)
    return REF_PROBE_S / np.asarray(hosts, dtype=float)


def read_windows(reads: np.ndarray) -> list:
    """*reads* in runs of at least ``WINDOW_READS`` consecutive reads
    (one run if there are fewer)."""
    return np.array_split(reads, max(1, len(reads) // WINDOW_READS))


@dataclass
class Samples:
    """The timed samples of one pass, scaled or raw."""

    setup: np.ndarray  #: per build, s
    reads: np.ndarray  #: per-call read latency, s
    read_wall: float  #: the timed reads() loops' summed time, s
    batch_pairs: int
    batch_wall: float  #: the query_many calls' summed time, s
    publish: np.ndarray  #: per publish, s
    updates: int


def samples_of(r: PassResult, scaled: bool = True) -> Samples:
    """*r*'s timed samples, at the reference host speed if *scaled*."""
    setup = np.asarray(r.setup_s) * _scales(r.setup_host, len(r.setup_s), scaled)
    read_scale = _scales(r.read_call_host, len(r.read_calls), scaled)
    per_call = [n for n, _ in r.read_calls]
    reads = np.asarray(r.read_latency_s)
    if len(reads):
        reads = reads * np.repeat(read_scale, per_call)
    batch_scale = _scales(r.batch_host, len(r.batches), scaled)
    return Samples(
        setup=setup,
        reads=reads,
        read_wall=float(np.dot([t for _, t in r.read_calls], read_scale)),
        batch_pairs=sum(n for n, _ in r.batches),
        batch_wall=float(np.dot([t for _, t in r.batches], batch_scale)),
        publish=np.asarray(r.publish_s) * _scales(r.publish_host, len(r.publish_s), scaled),
        updates=r.updates,
    )


def figures(s: Samples) -> Dict[str, float]:
    return {
        "setup_s": float(np.median(s.setup)),
        "query_p50_us": float(np.percentile(s.reads, 50)) * 1e6,
        "query_p99_us": float(np.median([np.percentile(w, 99) for w in read_windows(s.reads)]))
        * 1e6,
        "query_qps": _ratio(len(s.reads), s.read_wall),
        "batch_pair_qps": _ratio(s.batch_pairs, s.batch_wall),
        "publish_p50_ms": float(np.percentile(s.publish, 50)) * 1e3,
        "publish_p90_ms": float(np.percentile(s.publish, 90)) * 1e3,
        "updates_per_s": _ratio(s.updates, float(s.publish.sum())),
    }


def end_to_end(r: PassResult) -> Dict[str, float]:
    out = figures(samples_of(r))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def host_speed(r: PassResult) -> Optional[float]:
    """The run's median host time over the reference (1: reference speed)."""
    hosts = r.setup_host + r.read_call_host + r.batch_host + r.publish_host
    return statistics.median(hosts) / REF_PROBE_S if hosts else None


def samples(r: PassResult) -> Dict[str, str]:
    """Sample counts behind the end-to-end metrics, and each figure
    unscaled, for the printed table."""
    raw = figures(samples_of(r, scaled=False))
    reads = f"n={len(r.read_latency_s)} reads"
    publishes = f"n={len(r.publish_s)} publishes ({r.publishes_per_pass} distinct steps)"
    notes = {
        "setup_s": f"median of {len(r.setup_s)} builds",
        "query_p50_us": reads,
        "query_p99_us": f"{reads} in {len(read_windows(r.read_latency_s))} windows; pooled p99: "
        f"{float(np.percentile(samples_of(r).reads, 99)) * 1e6:.6g}",
        "query_qps": reads,
        "batch_pair_qps": f"n={sum(n for n, _ in r.batches)} pairs in {len(r.batches)} batches",
        "publish_p50_ms": publishes,
        "publish_p90_ms": publishes,
        "updates_per_s": publishes + "; printed, not gated",
    }
    for name, value in raw.items():
        notes[name] += f"; unscaled: {value:.6g}"
    notes["peak_rss_mb"] = "this process"
    return notes


def per_layer(traced: PassResult, untraced: PassResult, facts: dict) -> Dict[str, float]:
    read = traced.sections.get("read", {})
    batch = traced.sections.get("batch", {})
    pub = traced.sections.get("publish", {})
    sec, calls = shims.seconds, shims.calls
    reads = calls(read, "serve.distance_on") or len(traced.read_latency_s)
    publishes = len(traced.publish_s)

    def mean_us(layer: str) -> float:
        return _ratio(sec(read, layer), calls(read, layer)) * 1e6

    def publish_ms(layer: str) -> float:
        return _ratio(sec(pub, layer), publishes) * 1e3

    read_self = sec(read, "serve.distance_on") - sum(sec(read, layer) for layer in READ_CHILDREN)
    counts = traced.publish_counts
    batch_pairs = sum(n for n, _ in traced.batches)
    batch_wall = sum(wall for _, wall in traced.batches)
    e2e_traced, e2e_plain = end_to_end(traced), end_to_end(untraced)
    return {
        "oracle.query_us": mean_us("oracle.distance"),
        "h2h.tree.lca_share": _ratio(sec(read, "h2h.tree.lca"), sec(read, "oracle.distance")),
        "oracle.query.work_per_call": _ratio(
            sum(w for _, w in traced.read_work), sum(c for c, _ in traced.read_work)
        ),
        "serve.query.self_us": _ratio(read_self, reads) * 1e6,
        "serve.cache.get_us": mean_us("serve.cache.get"),
        "serve.cache.put_us": mean_us("serve.cache.put"),
        "serve.cache.hit_rate": _ratio(traced.cache_hits, traced.cache_gets),
        "serve.cache.lru_evictions": facts["lru_evictions"],
        "obs.registry_us_per_query": _ratio(sec(read, "obs.registry"), reads) * 1e6,
        "obs.registry.series": facts["registry_series"],
        "serve.query_many.pair_us": _ratio(batch_wall, batch_pairs) * 1e6,
        "serve.query_many.overhead_share": 1.0
        - _ratio(sec(batch, "serve.distance_on.cpu"), batch_wall),
        "perf.coalesce_ms": publish_ms("perf.coalesce"),
        "core.clone_ms": publish_ms("core.clone"),
        "reliability.txn_snapshot_ms": publish_ms("reliability.txn_snapshot"),
        "reliability.cow_apply_ms": publish_ms("reliability.cow_apply"),
        "oracle.maint_ms": publish_ms("oracle.maint"),
        "oracle.maint.ops_per_publish": _ratio(sum(c[1] for c in counts), len(counts)),
        "oracle.maint.aff_norm_per_publish": _ratio(sum(c[2] for c in counts), len(counts)),
        "oracle.maint.diff_per_publish": _ratio(sum(c[3] for c in counts), len(counts)),
        "oracle.maint.ops_per_aff_budget": _ratio(
            sum(traced.aff_budget_ratios), len(traced.aff_budget_ratios)
        ),
        "serve.aff_ms": publish_ms("serve.aff"),
        "serve.aff.vertex_share": _ratio(
            sum(traced.affected_share), len(traced.affected_share)
        ),
        "serve.cache.migrate_ms": publish_ms("serve.cache.migrate"),
        "serve.cache.carried_share": _ratio(traced.carried, traced.carried + traced.evicted),
        "serve.epoch.publish_ms": publish_ms("serve.epoch.publish"),
        "serve.publish.self_ms": _ratio(sum(traced.publish_self_s), publishes) * 1e3,
        "bench.trace_overhead.query_pct": (
            _ratio(e2e_plain["query_qps"], e2e_traced["query_qps"]) - 1.0
        ) * 100.0,
        "bench.trace_overhead.publish_pct": (
            _ratio(e2e_traced["publish_p50_ms"], e2e_plain["publish_p50_ms"]) - 1.0
        ) * 100.0,
    }


def counts_repeat(a: PassResult, b: PassResult) -> List[str]:
    """Differences between two same-seed passes' exact counts, over the
    prefix both passes ran (timed phases end on the clock)."""
    problems = []
    for name in ("read_work", "publish_counts", "aff_budget_ratios"):
        x, y = getattr(a, name), getattr(b, name)
        k = min(len(x), len(y))
        if name == "read_work" and a.exact_read_groups is not None:
            k = min(k, a.exact_read_groups)
        if k == 0:
            problems.append(f"{name}: no common prefix")
        elif x[:k] != y[:k]:
            first = next(i for i in range(k) if x[i] != y[i])
            problems.append(f"{name}[{first}]: {x[first]} != {y[first]}")
    return problems

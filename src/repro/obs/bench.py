"""The bench trajectory: machine-readable ``BENCH_<name>.json`` files.

Benchmark harnesses (``repro.serve.bench`` and the pytest suite under
``benchmarks/``) describe one run as a :class:`BenchRecord` — exact
latency percentiles from raw samples, throughput, the boundedness
ratios of Theorems 4.1/5.1 (ops / ‖AFF‖·log‖AFF‖ and ops /
|DIFF|·log|DIFF|), and index sizes — and :func:`write_bench` lands it
as ``BENCH_<name>.json``.  Because the file name is stable per
benchmark, committed records accumulate into a perf trajectory across
PRs, and ``repro obs bench-compare old.json new.json`` turns any two
points of it into per-metric % deltas with a regression gate
(non-zero exit when p95 latency regresses beyond the threshold).
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "BenchRecord",
    "BenchDelta",
    "BenchComparison",
    "latency_percentiles",
    "write_bench",
    "load_bench",
    "compare_bench",
    "pair_bench_dirs",
]

#: Format version embedded in every BENCH file.
BENCH_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Exact linear-interpolation percentile of pre-sorted samples."""
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def latency_percentiles(samples_s: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max of raw latency samples, in microseconds."""
    ordered = sorted(samples_s)
    if not ordered:
        return {}
    return {
        "p50": _percentile(ordered, 0.50) * 1e6,
        "p95": _percentile(ordered, 0.95) * 1e6,
        "p99": _percentile(ordered, 0.99) * 1e6,
        "mean": sum(ordered) / len(ordered) * 1e6,
        "max": ordered[-1] * 1e6,
    }


@dataclass
class BenchRecord:
    """One benchmark run, in the shape every BENCH file shares.

    Harnesses fill what they measure and leave the rest empty; the
    comparator only diffs metrics present on both sides.
    """

    name: str  #: stable benchmark id — the <name> of BENCH_<name>.json
    config: dict = field(default_factory=dict)  #: knobs of the run
    latency_us: Dict[str, float] = field(default_factory=dict)  #: p50/p95/p99/mean/max
    throughput_qps: Optional[float] = None  #: served queries per second
    ratios: Dict[str, float] = field(default_factory=dict)  #: ops/budget ratios (Thm 4.1/5.1)
    index: Dict[str, float] = field(default_factory=dict)  #: size_bytes, shortcuts, ...
    extra: dict = field(default_factory=dict)  #: anything else worth keeping

    def as_dict(self) -> dict:
        return {
            "bench_schema_version": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "config": self.config,
            "latency_us": self.latency_us,
            "throughput_qps": self.throughput_qps,
            "ratios": self.ratios,
            "index": self.index,
            "extra": self.extra,
        }


def write_bench(record: BenchRecord, directory: str = ".") -> str:
    """Write *record* as ``<directory>/BENCH_<name>.json``; return the path."""
    if not _NAME_RE.match(record.name):
        raise ValueError(f"invalid bench name {record.name!r}")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{record.name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_bench(path: str) -> dict:
    """Load one BENCH file (any schema version this code understands)."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "name" not in data:
        raise ValueError(f"{path} is not a BENCH record")
    return data


@dataclass(frozen=True)
class BenchDelta:
    """One metric's movement between two BENCH records."""

    metric: str  #: dotted path, e.g. "latency_us.p95"
    old: float
    new: float

    @property
    def pct(self) -> float:
        """Relative change ``(new - old) / old`` (inf when old == 0)."""
        if self.old == 0:
            return math.inf if self.new != 0 else 0.0
        return (self.new - self.old) / self.old


@dataclass
class BenchComparison:
    """All deltas between two BENCH records plus the regression verdict."""

    old_name: str
    new_name: str
    threshold: float  #: relative p95 regression tolerance (0.2 = +20%)
    deltas: List[BenchDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[BenchDelta]:
        """Gated metrics that moved the wrong way beyond the threshold.

        The gate watches ``latency_us.p95`` (higher is worse),
        ``throughput_qps`` (lower is worse), and any flattened
        ``extra.*publish_latency_us.mean`` (higher is worse).
        """
        bad: List[BenchDelta] = []
        for delta in self.deltas:
            if delta.metric == "latency_us.p95" and delta.pct > self.threshold:
                bad.append(delta)
            if delta.metric == "throughput_qps" and delta.pct < -self.threshold:
                bad.append(delta)
            if (
                delta.metric.startswith("extra.")
                and delta.metric.endswith("publish_latency_us.mean")
                and delta.pct > self.threshold
            ):
                bad.append(delta)
        return bad

    @property
    def ok(self) -> bool:
        return not self.regressions


def _flatten(record: dict) -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for group in ("latency_us", "ratios", "index"):
        for key, value in (record.get(group) or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{group}.{key}"] = float(value)
    tput = record.get("throughput_qps")
    if isinstance(tput, (int, float)) and not isinstance(tput, bool):
        flat["throughput_qps"] = float(tput)
    # Numeric extras (one level of nesting) so comparable harness-
    # specific figures — e.g. publish-latency percentiles — show up
    # as extra.<key>[.<subkey>] deltas and can be gated.
    for key, value in (record.get("extra") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[f"extra.{key}"] = float(value)
        elif isinstance(value, dict):
            for sub, subval in value.items():
                if isinstance(subval, (int, float)) and not isinstance(
                    subval, bool
                ):
                    flat[f"extra.{key}.{sub}"] = float(subval)
    return flat


def pair_bench_dirs(old_dir: str, new_dir: str):
    """Match the ``BENCH_*.json`` files of two directories by file name.

    Returns ``(pairs, only_old, only_new)`` where *pairs* is a sorted
    list of ``(name, old_path, new_path)`` — the inputs ``repro obs
    bench-compare <dir> <dir>`` feeds through :func:`compare_bench` one
    benchmark at a time — and the ``only_*`` lists name records present
    on just one side (reported, never gated on: a brand-new benchmark
    has no baseline to regress against).
    """
    def _records(directory: str) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for entry in sorted(os.listdir(directory)):
            if entry.startswith("BENCH_") and entry.endswith(".json"):
                out[entry[len("BENCH_") : -len(".json")]] = os.path.join(
                    directory, entry
                )
        return out

    old_records = _records(old_dir)
    new_records = _records(new_dir)
    pairs = [
        (name, old_records[name], new_records[name])
        for name in sorted(set(old_records) & set(new_records))
    ]
    only_old = sorted(set(old_records) - set(new_records))
    only_new = sorted(set(new_records) - set(old_records))
    return pairs, only_old, only_new


def compare_bench(
    old: dict, new: dict, threshold: float = 0.20
) -> BenchComparison:
    """Diff two loaded BENCH records; see :class:`BenchComparison`."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    flat_old = _flatten(old)
    flat_new = _flatten(new)
    comparison = BenchComparison(
        old_name=old.get("name", "?"),
        new_name=new.get("name", "?"),
        threshold=threshold,
    )
    for metric in sorted(set(flat_old) & set(flat_new)):
        comparison.deltas.append(
            BenchDelta(metric=metric, old=flat_old[metric], new=flat_new[metric])
        )
    return comparison

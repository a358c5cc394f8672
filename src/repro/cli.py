"""Command-line interface: ``python -m repro <command>``.

The workflow the paper targets, as shell commands::

    python -m repro generate --vertices 2000 --seed 7 --out city.gr
    python -m repro build --network city.gr --oracle h2h --out city.h2h.npz
    python -m repro query --index city.h2h.npz --pairs "0 1500" "12 900"
    python -m repro update --index city.h2h.npz --set "0 1 140" --out city.h2h.npz
    python -m repro stats --network city.gr --index city.h2h.npz
    python -m repro verify --index city.h2h.npz --network city.gr
    python -m repro recover --store /var/lib/repro/city --out city.h2h.npz
    python -m repro serve-bench --oracle ch --vertices 400 --json serve.json
    python -m repro cache-stats --stats serve.json

``build`` pays the indexing cost once; ``update`` maintains the saved
index incrementally with DCH / IncH2H (never rebuilding); ``query``
reads distances from the up-to-date index.  ``verify`` runs the
integrity sweep of :mod:`repro.reliability` against an archive (and
optionally the network it claims to index); ``recover`` reconstructs an
oracle from a :class:`~repro.reliability.ReliableStore` directory
(snapshot + write-ahead log) after a crash.  ``serve-bench`` measures
the epoch-snapshot serving layer (:mod:`repro.serve`) — cached-hit
speedup and AFF-scoped cache survival across update publishes —
and ``cache-stats`` pretty-prints the cache totals a previous
``serve-bench --json`` run saved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from typing import Optional, Sequence, Tuple

from repro.ch.indexing import ch_indexing
from repro.errors import ReproError
from repro.graph.generators import road_network
from repro.graph.io import read_dimacs, read_edge_list, write_dimacs
from repro.h2h.index import H2HIndex
from repro.h2h.indexing import h2h_indexing
from repro.obs.bench import (
    compare_bench,
    load_bench,
    pair_bench_dirs,
    write_bench,
)
from repro.obs.context import build_trace_trees, render_trace_tree, trace_summaries
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.sentinel import (
    DEFAULT_MARGIN,
    DEFAULT_MIN_MEASURE,
    BoundednessSentinel,
    fit_envelope,
)
from repro.obs.slo import SLOEngine, default_rules, load_rules
from repro.obs.trace import JsonlSink, TraceSchemaError, set_sink, validate_record
from repro.persist import load_oracle, save_index
from repro.reliability import ReliableStore, verify_index
from repro.serve.bench import BenchConfig, overload_bench, serve_bench
from repro.utils.timer import Timer

__all__ = ["main"]


def _read_network(path: str):
    if path.endswith(".gr"):
        return read_dimacs(path)
    return read_edge_list(path)


def _cmd_generate(args) -> int:
    graph = road_network(args.vertices, seed=args.seed)
    write_dimacs(graph, args.out,
                 comment=f"synthetic road network, seed={args.seed}")
    print(f"wrote {graph.n} vertices / {graph.m} edges to {args.out}")
    return 0


def _cmd_build(args) -> int:
    graph = _read_network(args.network)
    with Timer() as timer:
        if args.oracle == "ch":
            index = ch_indexing(graph)
            size = index.num_shortcuts
            unit = "shortcuts"
        else:
            index = h2h_indexing(graph)
            size = index.num_super_shortcuts()
            unit = "super-shortcuts"
        save_index(index, args.out)
    print(f"built {args.oracle.upper()} index ({size} {unit}) "
          f"in {timer.elapsed:.2f}s -> {args.out}")
    return 0


def _parse_pair(text: str) -> tuple:
    fields = text.split()
    if len(fields) != 2:
        raise ReproError(f"expected 's t', got {text!r}")
    return int(fields[0]), int(fields[1])


def _cmd_query(args) -> int:
    oracle = load_oracle(args.index)
    pairs = [_parse_pair(p) for p in args.pairs]
    if args.pairs_file:
        with open(args.pairs_file) as handle:
            pairs += [_parse_pair(line) for line in handle if line.strip()]
    if not pairs:
        print("no query pairs given", file=sys.stderr)
        return 2
    with Timer() as timer:
        answers = [(s, t, oracle.distance(s, t)) for s, t in pairs]
    for s, t, d in answers:
        print(f"{s} {t} {d}")
    print(
        f"[{type(oracle).__name__}] {len(pairs)} queries in "
        f"{timer.elapsed * 1e3:.2f}ms",
        file=sys.stderr,
    )
    return 0


def _parse_update(text: str) -> tuple:
    fields = text.split()
    if len(fields) != 3:
        raise ReproError(f"expected 'u v new_weight', got {text!r}")
    return (int(fields[0]), int(fields[1])), float(fields[2])


def _cmd_update(args) -> int:
    oracle = load_oracle(args.index)
    updates = [_parse_update(u) for u in args.set]
    if args.updates_file:
        with open(args.updates_file) as handle:
            updates += [_parse_update(line) for line in handle
                        if line.strip() and not line.startswith("#")]
    if not updates:
        print("no updates given", file=sys.stderr)
        return 2
    with Timer() as timer:
        report = oracle.apply(updates)
    changed = len(report.changed_shortcuts) + len(report.changed_super_shortcuts)
    out = args.out or args.index
    save_index(oracle.index, out)
    print(f"applied {report.increases} increases / {report.decreases} "
          f"decreases ({changed} index entries changed) in {timer.elapsed * 1e3:.2f}ms "
          f"-> {out}")
    return 0


def _cmd_stats(args) -> int:
    if args.network:
        graph = _read_network(args.network)
        print(f"network: {graph.n} vertices, {graph.m} edges, "
              f"{'connected' if graph.is_connected() else 'DISCONNECTED'}")
    if args.index:
        oracle = load_oracle(args.index)
        index = oracle.index
        if isinstance(index, H2HIndex):
            size = (f"{index.num_super_shortcuts()} super-shortcuts, "
                    f"height {index.height}")
        else:
            size = f"{index.num_shortcuts} shortcuts"
        print(f"{type(oracle).__name__} index: {size}, "
              f"~{index.size_in_bytes() / 2**20:.1f} MiB")
    if not args.network and not args.index:
        print("give --network and/or --index", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    oracle = load_oracle(args.index)
    graph = _read_network(args.network) if args.network else None
    if args.bounded:
        return _verify_bounded(args, oracle, graph)
    with Timer() as timer:
        checked = verify_index(oracle.index, graph,
                               sample=args.sample, seed=args.seed)
    scope = "sampled" if args.sample is not None else "exhaustive"
    against = " against network" if graph is not None else ""
    print(f"[{type(oracle).__name__}] integrity OK{against}: {checked} "
          f"entries checked ({scope}) in {timer.elapsed * 1e3:.2f}ms")
    return 0


def _verify_bounded(args, oracle, graph) -> int:
    """``repro verify --bounded``: accept an index that lags the network
    by at most the ε bound (docs/degraded-mode.md).

    The index must still be internally consistent (exhaustive
    ``verify_index`` sweep of every weight / support / distance entry —
    degradation defers updates, it never corrupts), but its edge weights
    may deviate from the network's true weights by a factor of up to
    ``1 + ε`` per edge.  Reports the worst observed per-edge stretch
    (which bounds query stretch by construction) and, with
    ``--stretch-queries``, the worst observed *query* stretch of a
    sampled differential sweep against Dijkstra on the true weights.
    """
    import random as _random

    from repro.core.oracle import DijkstraOracle
    from repro.reliability.degrade import check_stretch

    if graph is None:
        print("error: --bounded needs --network (the true weights to "
              "bound against)", file=sys.stderr)
        return 2
    epsilon = args.epsilon
    with Timer() as timer:
        checked = verify_index(oracle.index, None, sample=args.sample,
                               seed=args.seed)
        worst_edge = 0.0
        for u, v, w in graph.edges():
            iw = oracle.graph.weight(u, v)
            if iw <= 0 or w <= 0:
                if iw != w:
                    worst_edge = math.inf
                continue
            worst_edge = max(worst_edge, max(iw / w, w / iw) - 1.0)
    print(f"[{type(oracle).__name__}] bounded integrity: {checked} entries "
          f"internally consistent; worst edge stretch {worst_edge:.4f} vs "
          f"ε bound {epsilon:.4f} ({timer.elapsed * 1e3:.2f}ms)")
    ok = worst_edge <= epsilon + 1e-9
    if args.stretch_queries > 0:
        rng = _random.Random(args.seed)
        truth = DijkstraOracle(graph)
        worst_query = 0.0
        violations = 0
        for _ in range(args.stretch_queries):
            s = rng.randrange(graph.n)
            t = rng.randrange(graph.n)
            served = oracle.distance(s, t)
            exact = truth.distance(s, t)
            if not check_stretch(served, exact, epsilon):
                violations += 1
            if math.isfinite(served) and math.isfinite(exact) \
                    and served > 0 and exact > 0:
                worst_query = max(
                    worst_query, max(served / exact, exact / served) - 1.0
                )
        print(f"  query sweep: {args.stretch_queries} pairs, worst query "
              f"stretch {worst_query:.4f}, {violations} beyond the bound")
        ok = ok and violations == 0
    if not ok:
        print(f"error: observed stretch exceeds the ε bound {epsilon}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_recover(args) -> int:
    store = ReliableStore(args.store)
    with Timer() as timer:
        result = store.recover()
    oracle = result.oracle
    print(f"recovered {type(oracle).__name__} oracle "
          f"({oracle.graph.n} vertices, {oracle.graph.m} edges) from "
          f"{args.store}: snapshot + {result.replayed_batches} journaled "
          f"batch(es) replayed in {timer.elapsed * 1e3:.2f}ms")
    if args.out:
        save_index(oracle.index, args.out)
        print(f"wrote recovered index -> {args.out}")
    if args.checkpoint:
        store.checkpoint(oracle)
        print("checkpointed recovered state (journal cleared)")
    return 0


def _ensure_parent(path: str) -> None:
    """Create the directory an output file is about to land in."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _bench_sink(args):
    """The trace sink stack a serve-bench run asked for: a buffered
    :class:`JsonlSink` for ``--trace``, wrapped by a
    :class:`FlightRecorder` when ``--flight-dir`` is given (the recorder
    tees every record to the JSONL file and dumps the ring on
    anomalies).  Returns ``None`` when no tracing was requested."""
    sink = None
    if args.trace:
        _ensure_parent(args.trace)
        sink = JsonlSink(args.trace, buffer_records=256)
    if args.flight_dir:
        sink = FlightRecorder(dump_dir=args.flight_dir, downstream=sink)
    return sink


def _report_flight(sink) -> None:
    if isinstance(sink, FlightRecorder):
        if sink.dumps:
            print(f"flight recorder: {len(sink.dumps)} dump(s)")
            for path in sink.dumps:
                print(f"  {path}")
        else:
            print("flight recorder: no anomalies, no dumps")


def _cmd_serve_bench(args) -> int:
    config = BenchConfig(
        oracle=args.oracle,
        vertices=args.vertices,
        seed=args.seed,
        queries=args.queries,
        repeats=args.repeats,
        updates=args.updates,
        batch=args.batch,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        throughput_edges=args.throughput_edges,
        throughput_reports=args.throughput_reports,
        overload_batches=args.overload_batches,
        overload_batch=args.overload_batch,
        overload_factor=args.overload_factor,
        threshold_c=args.threshold_c,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        stretch_queries=args.stretch_queries,
    )
    if args.overload:
        return _serve_bench_overload(args, config)
    sink = previous = None
    if args.trace or args.flight_dir:
        sink = _bench_sink(args)
        previous = set_sink(sink)
    try:
        result = serve_bench(config)
    finally:
        if sink is not None:
            set_sink(previous)
            sink.close()
    print(f"serve-bench [{config.oracle}] {args.vertices} vertices, "
          f"{config.queries} pairs x {config.repeats} passes, "
          f"{config.updates} update batches of {config.batch}")
    print(f"  build             {result.build_s:8.2f} s")
    print(f"  baseline (uncached) {result.baseline_per_query_s * 1e6:8.1f} us/query")
    print(f"  cold (first pass)   {result.cold_per_query_s * 1e6:8.1f} us/query")
    if result.stats.get("cache") is None:
        print(f"  warm (labels)       {result.warm_per_query_s * 1e6:8.1f} us/query")
        print("  speedup             no cache (label oracle)")
    else:
        print(f"  warm (cache hits)   {result.warm_per_query_s * 1e6:8.1f} us/query")
        print(f"  speedup             {result.speedup:8.1f} x")
    if result.update_throughput:
        tput = result.update_throughput
        print(f"  update throughput   {tput['sequential_updates_per_s']:8.1f} "
              f"updates/s sequential, {tput['batched_updates_per_s']:8.1f} "
              f"coalesced ({tput['batch_speedup']:.1f}x)")
    for pub in result.publishes:
        print(f"  epoch {pub['epoch']}: |V_aff|={pub['affected']} "
              f"carried={pub['carried']} evicted={pub['evicted']} "
              f"pass={pub['pass_per_query_us']:.1f} us/query")
    if args.json:
        _ensure_parent(args.json)
        with open(args.json, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"wrote stats -> {args.json}")
    if args.trace:
        print(f"wrote trace -> {args.trace}")
    _report_flight(sink)
    if args.metrics:
        _ensure_parent(args.metrics)
        with open(args.metrics, "w") as handle:
            json.dump(result.metrics, handle, indent=2, sort_keys=True)
        print(f"wrote metrics snapshot -> {args.metrics}")
    if args.bench_out:
        record = result.to_bench_record(
            args.bench_name or f"serve_{config.oracle}"
        )
        path = write_bench(record, args.bench_out)
        print(f"wrote bench record -> {path}")
    return 0


def _serve_bench_overload(args, config: BenchConfig) -> int:
    """``repro serve-bench --overload``: the degraded-tier scenario."""
    sink = previous = None
    if args.trace or args.flight_dir:
        sink = _bench_sink(args)
        previous = set_sink(sink)
    try:
        result = overload_bench(config)
    finally:
        if sink is not None:
            set_sink(previous)
            sink.close()
    print(f"serve-bench --overload [{config.oracle}] {config.vertices} "
          f"vertices, {config.overload_batches} batches of "
          f"{config.overload_batch} (factor {config.overload_factor}), "
          f"threshold-c {config.threshold_c}, watermarks "
          f"{config.high_watermark}/{config.low_watermark}")
    print(f"  build               {result.build_s:8.2f} s")
    print(f"  exact baseline      {result.exact_updates_per_s:8.1f} updates/s "
          f"({result.exact_updates} updates in {result.exact_s:.3f}s)")
    print(f"  degraded sustained  {result.degraded_updates_per_s:8.1f} updates/s "
          f"({result.degraded_updates} updates, "
          f"{result.degraded_publishes} partial publishes)")
    print(f"  speedup             {result.speedup:8.1f} x "
          f"(acceptance gate: >= 3x)")
    print(f"  max ε observed      {result.max_epsilon:8.4f} "
          f"(budget {result.epsilon_budget:.4f})")
    print(f"  catch-up            {result.caught_up} deltas folded in "
          f"{result.catchup_s * 1e3:.1f}ms")
    for phase, row in result.stretch.items():
        print(f"  stretch[{phase:<8}]  {row['queries']} queries, "
              f"worst {row['worst_stretch']:.4f}, "
              f"{row['violations']} violations ({row['state']})")
    if result.slo:
        fired = [t for t in result.slo["transitions"] if t["event"] == "fire"]
        cleared = [t for t in result.slo["transitions"]
                   if t["event"] == "clear"]
        still = ", ".join(result.slo["firing"]) or "none"
        print(f"  SLO transitions     {len(fired)} fired, "
              f"{len(cleared)} cleared; still firing: {still}")
        for t in result.slo["transitions"]:
            print(f"    {t['event']:<5} {t['rule']:<24} {t['reason']}")
    if args.json:
        _ensure_parent(args.json)
        with open(args.json, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"wrote stats -> {args.json}")
    if args.trace:
        print(f"wrote trace -> {args.trace}")
    _report_flight(sink)
    if args.metrics:
        _ensure_parent(args.metrics)
        with open(args.metrics, "w") as handle:
            json.dump(result.metrics, handle, indent=2, sort_keys=True)
        print(f"wrote metrics snapshot -> {args.metrics}")
    if args.metrics_mid:
        _ensure_parent(args.metrics_mid)
        with open(args.metrics_mid, "w") as handle:
            json.dump(result.metrics_degraded, handle, indent=2,
                      sort_keys=True)
        print(f"wrote mid-run (degraded) metrics snapshot -> "
              f"{args.metrics_mid}")
    if args.slo_out:
        _ensure_parent(args.slo_out)
        with open(args.slo_out, "w") as handle:
            json.dump(result.slo, handle, indent=2, sort_keys=True)
        print(f"wrote SLO report -> {args.slo_out}")
    if args.bench_out:
        record = result.to_bench_record(args.bench_name or "serve_degraded")
        path = write_bench(record, args.bench_out)
        print(f"wrote bench record -> {path}")
    if result.total_violations or result.max_epsilon > result.epsilon_budget:
        print("error: stretch bound violated", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_metrics_dump(args) -> int:
    with open(args.snapshot) as handle:
        snapshot = json.load(handle)
    registry = MetricsRegistry.restore(snapshot)
    if args.format == "json":
        print(registry.dump_json())
    else:
        sys.stdout.write(registry.expose_text())
    return 0


def _cmd_obs_trace_tail(args) -> int:
    with open(args.trace) as handle:
        lines = deque(handle, maxlen=args.lines)
    invalid = 0
    core = ("span", "ts", "dur_s", "ok", "trace_id", "span_id", "parent_id")
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = validate_record(json.loads(line))
        except (json.JSONDecodeError, TraceSchemaError) as exc:
            invalid += 1
            print(f"invalid record: {exc}", file=sys.stderr)
            continue
        extras = " ".join(
            f"{key}={record[key]}" for key in record if key not in core
        )
        flag = "" if record["ok"] else " FAILED"
        trace = record.get("trace_id", "")
        trace_col = f" [{trace}]" if trace else ""
        print(f"{record['span']:<28} {record['dur_s'] * 1e3:9.3f} ms"
              f"{flag}{trace_col}  {extras}")
    if invalid:
        print(f"{invalid} invalid record(s)", file=sys.stderr)
        return 1
    return 0


def _load_trace_records(path: str) -> Tuple[list, int]:
    """All parseable JSON records of a JSONL trace, plus the bad-line
    count."""
    records = []
    invalid = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                invalid += 1
    return records, invalid


def _cmd_obs_trace_tree(args) -> int:
    records, invalid = _load_trace_records(args.trace)
    if invalid:
        print(f"{invalid} unparseable line(s) skipped", file=sys.stderr)
    trees = build_trace_trees(records)
    if not trees:
        print("no records with trace ids in this trace "
              "(written before trace-context propagation?)", file=sys.stderr)
        return 1
    if args.trace_id:
        matches = [t for t in trees if t.startswith(args.trace_id)]
        if not matches:
            print(f"trace id {args.trace_id!r} not found "
                  f"({len(trees)} traces in file)", file=sys.stderr)
            return 1
        if len(matches) > 1:
            print(f"trace id prefix {args.trace_id!r} is ambiguous "
                  f"({len(matches)} matches)", file=sys.stderr)
            return 1
        print(render_trace_tree(matches[0], trees[matches[0]]))
        return 0
    rows = trace_summaries(trees)
    if args.limit and len(rows) > args.limit:
        print(f"({len(rows) - args.limit} older trace(s) not shown)")
        rows = rows[-args.limit:]
    print(f"{'trace':<18} {'spans':>5} {'total':>10}  roots")
    for row in rows:
        roots = ", ".join(row["roots"])
        print(f"{row['trace_id']:<18} {row['spans']:>5} "
              f"{row['dur_s'] * 1e3:>8.3f}ms  {roots}")
    print(f"{len(trees)} trace(s); rerun with --trace-id <id> for the tree")
    return 0


def _cmd_obs_slo(args) -> int:
    with open(args.metrics) as handle:
        snapshot = json.load(handle)
    registry = MetricsRegistry.restore(snapshot)
    rules = load_rules(args.rules) if args.rules else default_rules()
    engine = SLOEngine(registry, rules)
    statuses = engine.tick()
    firing = [status for status in statuses if status.firing]
    if args.format == "json":
        print(json.dumps(
            {
                "status": [status.as_dict() for status in statuses],
                "firing": [status.rule.name for status in firing],
            },
            indent=2,
        ))
    else:
        print(f"{'rule':<26} {'kind':<13} {'value':>12} {'objective':>12} "
              f"state")
        for status in statuses:
            state = "FIRING" if status.firing else "ok"
            print(f"{status.rule.name:<26} {status.rule.kind:<13} "
                  f"{status.value:>12.6g} {status.rule.objective:>12.6g} "
                  f"{state}  ({status.reason})")
    if firing:
        print(f"{len(firing)} SLO rule(s) firing", file=sys.stderr)
        return 3
    return 0


def _cmd_obs_sentinel(args) -> int:
    envelope = fit_envelope(args.bench_dir, margin=args.margin)
    sentinel = BoundednessSentinel(envelope, min_measure=args.min_measure)
    recorder = None
    if args.flight_dir:
        # Replay is offline: disable the debounce so every violation in
        # the stream can produce its dump.
        recorder = FlightRecorder(
            dump_dir=args.flight_dir, sentinel=sentinel,
            min_dump_interval_s=0.0,
        )
    records, invalid = _load_trace_records(args.trace)
    if invalid:
        print(f"{invalid} unparseable line(s) skipped", file=sys.stderr)
    if args.inject:
        # A fabricated over-envelope batch: exercises the alerting path
        # end to end (the acceptance check behind `--inject` in CI).
        records.append({
            "span": "dch.increase", "ts": 0.0, "dur_s": 0.0, "ok": True,
            "trace_id": "injected0badbeef", "span_id": "bad0bad0",
            "parent_id": None,
            "ops_total": 1e9, "aff_norm": 64.0, "diff": 64.0,
        })
    for record in records:
        if recorder is not None:
            recorder.emit(record)
        else:
            sentinel.check_record(record)
    print(f"envelope: c_aff={envelope.c_aff:.4f} c_diff={envelope.c_diff:.4f} "
          f"(margin {envelope.margin:g} over {len(envelope.sources)} "
          f"BENCH record(s))")
    print(f"checked {sentinel.checked} maintenance batch(es), "
          f"worst exceedance {sentinel.worst_exceedance:.3f}")
    for verdict in sentinel.violations:
        print(f"  VIOLATION {verdict.span}: ops={verdict.ops_total:g} "
              f"aff={verdict.aff_norm} diff={verdict.diff} "
              f"exceedance={verdict.exceedance:.2f}x"
              + (f" trace={verdict.trace_id}" if verdict.trace_id else ""))
    if recorder is not None:
        _report_flight(recorder)
    if sentinel.violations:
        print(f"{len(sentinel.violations)} envelope violation(s)",
              file=sys.stderr)
        return 3
    return 0


def _print_comparison(comparison, threshold: float) -> bool:
    """Print one BENCH diff; True when it clears the regression gate."""
    print(f"{comparison.old_name} -> {comparison.new_name} "
          f"(regression threshold {threshold:.0%})")
    for delta in comparison.deltas:
        pct = delta.pct
        pct_text = "    n/a" if math.isinf(pct) else f"{pct:+8.1%}"
        print(f"  {delta.metric:<28} {delta.old:>14.3f} -> "
              f"{delta.new:>14.3f}  {pct_text}")
    if not comparison.deltas:
        print("  (no metrics in common)")
    if not comparison.ok:
        for regression in comparison.regressions:
            print(f"REGRESSION: {regression.metric} moved "
                  f"{regression.pct:+.1%} (threshold {threshold:.0%})",
                  file=sys.stderr)
        return False
    print("no regressions")
    return True


def _cmd_obs_bench_compare(args) -> int:
    if os.path.isdir(args.old) and os.path.isdir(args.new):
        # Directory mode: every benchmark present on both sides must
        # clear the gate; one-sided records are reported, never gated
        # (a brand-new benchmark has no baseline to regress against).
        pairs, only_old, only_new = pair_bench_dirs(args.old, args.new)
        if not pairs and not only_old and not only_new:
            print("no BENCH_*.json records in either directory",
                  file=sys.stderr)
            return 1
        ok = True
        for name, old_path, new_path in pairs:
            print(f"== {name} ==")
            comparison = compare_bench(
                load_bench(old_path), load_bench(new_path),
                threshold=args.threshold,
            )
            ok = _print_comparison(comparison, args.threshold) and ok
        for name in only_old:
            print(f"baseline-only record (skipped): {name}")
        for name in only_new:
            print(f"new record without baseline (skipped): {name}")
        return 0 if ok else 3
    old = load_bench(args.old)
    new = load_bench(args.new)
    comparison = compare_bench(old, new, threshold=args.threshold)
    return 0 if _print_comparison(comparison, args.threshold) else 3


def _cmd_cache_stats(args) -> int:
    with open(args.stats) as handle:
        data = json.load(handle)
    stats = data.get("stats", data)  # accept a bare stats() dump too
    cache = stats.get("cache", {})
    if cache is None:
        print(f"epoch {stats.get('epoch', '?')}: no cache (label oracle)")
        return 0
    print(f"epoch {stats.get('epoch', '?')}: "
          f"{stats.get('cache_size', '?')}/{stats.get('cache_capacity', '?')} "
          f"entries cached")
    print(f"  hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}  "
          f"hit-rate {cache.get('hit_rate', 0.0):.1%}")
    print(f"  evicted: {cache.get('evicted_aff', 0)} by AFF migration, "
          f"{cache.get('evicted_lru', 0)} by LRU bound; "
          f"carried {cache.get('carried', 0)} across publishes; "
          f"{cache.get('flushes', 0)} full flushes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic distance oracles for road networks "
                    "(CH / H2H with incremental maintenance).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a road network")
    p_gen.add_argument("--vertices", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_build = sub.add_parser("build", help="build and save an index")
    p_build.add_argument("--network", required=True,
                         help=".gr (DIMACS) or edge-list file")
    p_build.add_argument("--oracle", choices=("ch", "h2h"), default="h2h")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="answer distance queries")
    p_query.add_argument("--index", required=True)
    p_query.add_argument("--pairs", nargs="*", default=[],
                         help="each 's t'")
    p_query.add_argument("--pairs-file", default=None)
    p_query.set_defaults(func=_cmd_query)

    p_update = sub.add_parser(
        "update", help="apply weight updates incrementally"
    )
    p_update.add_argument("--index", required=True)
    p_update.add_argument("--set", nargs="*", default=[],
                          help="each 'u v new_weight'")
    p_update.add_argument("--updates-file", default=None)
    p_update.add_argument("--out", default=None,
                          help="output archive (default: in place)")
    p_update.set_defaults(func=_cmd_update)

    p_verify = sub.add_parser(
        "verify", help="integrity-check a saved index"
    )
    p_verify.add_argument("--index", required=True)
    p_verify.add_argument("--network", default=None,
                          help="cross-check against this network file")
    p_verify.add_argument("--sample", type=int, default=None,
                          help="check only N random entries (default: all)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bounded", action="store_true",
                          help="accept a boundedly-stale index: require "
                               "internal consistency plus per-edge stretch "
                               "<= --epsilon against --network")
    p_verify.add_argument("--epsilon", type=float, default=0.25,
                          help="the ε bound to verify against "
                               "(default 0.25 = threshold-c 1.25)")
    p_verify.add_argument("--stretch-queries", type=int, default=200,
                          help="differential query sweep size in --bounded "
                               "mode (0 skips it)")
    p_verify.set_defaults(func=_cmd_verify)

    p_recover = sub.add_parser(
        "recover", help="rebuild an oracle from a snapshot + WAL store"
    )
    p_recover.add_argument("--store", required=True,
                           help="ReliableStore directory")
    p_recover.add_argument("--out", default=None,
                           help="write the recovered index archive here")
    p_recover.add_argument("--checkpoint", action="store_true",
                           help="checkpoint the recovered state back into "
                                "the store (clears the journal)")
    p_recover.set_defaults(func=_cmd_recover)

    p_stats = sub.add_parser("stats", help="network / index statistics")
    p_stats.add_argument("--network", default=None)
    p_stats.add_argument("--index", default=None)
    p_stats.set_defaults(func=_cmd_stats)

    p_serve = sub.add_parser(
        "serve-bench",
        help="benchmark the epoch-snapshot serving layer",
    )
    p_serve.add_argument("--oracle", choices=("ch", "h2h", "dijkstra"),
                         default="ch")
    p_serve.add_argument("--vertices", type=int, default=400)
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--queries", type=int, default=300,
                         help="distinct (s, t) pairs per pass")
    p_serve.add_argument("--repeats", type=int, default=5,
                         help="warm passes measured")
    p_serve.add_argument("--updates", type=int, default=3,
                         help="update batches applied mid-run")
    p_serve.add_argument("--batch", type=int, default=8,
                         help="edges per update batch")
    p_serve.add_argument("--workers", type=int, default=4)
    p_serve.add_argument("--cache-capacity", type=int, default=65536)
    p_serve.add_argument("--json", default=None,
                         help="also write the full stats as JSON here")
    p_serve.add_argument("--trace", default=None,
                         help="write per-span JSONL trace records here "
                              "(buffered; flushed every 256 records)")
    p_serve.add_argument("--flight-dir", default=None,
                         help="attach a flight recorder; anomaly dumps "
                              "(slow publish, ε raise, fallback) land here")
    p_serve.add_argument("--metrics", default=None,
                         help="write the MetricsRegistry snapshot (JSON) "
                              "here, for `repro obs metrics-dump`")
    p_serve.add_argument("--metrics-mid", default=None,
                         help="with --overload: also write the mid-run "
                              "(degraded) registry snapshot here — "
                              "`repro obs slo` against it must exit 3")
    p_serve.add_argument("--slo-out", default=None,
                         help="with --overload: write the SLO engine "
                              "report (rules, verdicts, transitions) here")
    p_serve.add_argument("--bench-out", default=None,
                         help="directory to write BENCH_<name>.json into")
    p_serve.add_argument("--bench-name", default=None,
                         help="bench record name (default: serve_<oracle>)")
    p_serve.add_argument("--throughput-edges", type=int, default=16,
                         help="edges in the update-throughput phase "
                              "(0 skips the phase)")
    p_serve.add_argument("--throughput-reports", type=int, default=3,
                         help="re-reports per edge in the raw stream")
    p_serve.add_argument("--overload", action="store_true",
                         help="run the degraded-tier overload scenario "
                              "instead (docs/degraded-mode.md)")
    p_serve.add_argument("--overload-batches", type=int, default=40,
                         help="minor-update batches flooding the server")
    p_serve.add_argument("--overload-batch", type=int, default=8,
                         help="edges per overload batch")
    p_serve.add_argument("--overload-factor", type=float, default=1.15,
                         help="per-update weight factor (< threshold-c)")
    p_serve.add_argument("--threshold-c", type=float, default=1.25,
                         help="deferral threshold of the degrade policy")
    p_serve.add_argument("--high-watermark", type=int, default=4,
                         help="backlog depth that enters degraded mode")
    p_serve.add_argument("--low-watermark", type=int, default=1,
                         help="backlog depth that triggers the catch-up")
    p_serve.add_argument("--stretch-queries", type=int, default=1200,
                         help="differential queries across the "
                              "degraded/catch-up/healthy transitions")
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_obs = sub.add_parser(
        "obs", help="observability: metrics, traces, bench trajectory"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_dump = obs_sub.add_parser(
        "metrics-dump",
        help="render a saved MetricsRegistry snapshot",
    )
    p_dump.add_argument("--snapshot", required=True,
                        help="JSON snapshot (e.g. serve-bench --metrics)")
    p_dump.add_argument("--format", choices=("text", "json"), default="text",
                        help="Prometheus text exposition (default) or JSON")
    p_dump.set_defaults(func=_cmd_obs_metrics_dump)

    p_tail = obs_sub.add_parser(
        "trace-tail",
        help="print (and schema-check) the last records of a JSONL trace",
    )
    p_tail.add_argument("trace", help="JSONL trace file (serve-bench --trace)")
    p_tail.add_argument("-n", "--lines", type=int, default=20,
                        help="records to show (default 20)")
    p_tail.set_defaults(func=_cmd_obs_trace_tail)

    p_tree = obs_sub.add_parser(
        "trace-tree",
        help="reconstruct causal span trees from a JSONL trace",
    )
    p_tree.add_argument("trace", help="JSONL trace file (serve-bench --trace)")
    p_tree.add_argument("--trace-id", default=None,
                        help="render this trace's tree (prefix ok); "
                             "without it, list all traces")
    p_tree.add_argument("--limit", type=int, default=30,
                        help="most-recent traces listed (default 30, "
                             "0 = all)")
    p_tree.set_defaults(func=_cmd_obs_trace_tree)

    p_slo = obs_sub.add_parser(
        "slo",
        help="judge SLO rules against a metrics snapshot; exit 3 while "
             "any rule fires",
    )
    p_slo.add_argument("--metrics", required=True,
                       help="registry snapshot (serve-bench --metrics / "
                            "--metrics-mid)")
    p_slo.add_argument("--rules", default=None,
                       help="JSON rules file (default: the built-in rules, "
                            "docs/slo.md)")
    p_slo.add_argument("--format", choices=("table", "json"),
                       default="table")
    p_slo.set_defaults(func=_cmd_obs_slo)

    p_sentinel = obs_sub.add_parser(
        "sentinel",
        help="check a trace's maintenance batches against the "
             "Theorem 4.1/5.1 boundedness envelope; exit 3 on violation",
    )
    p_sentinel.add_argument("trace",
                            help="JSONL trace file (serve-bench --trace)")
    p_sentinel.add_argument("--bench-dir", default="benchmarks/results",
                            help="directory of committed BENCH_*.json to "
                                 "fit the envelope from")
    p_sentinel.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                            help="headroom multiplier over the worst "
                                 "committed ratio")
    p_sentinel.add_argument("--min-measure", type=float,
                            default=DEFAULT_MIN_MEASURE,
                            help="skip batches with ‖AFF‖ and |DIFF| both "
                                 "below this")
    p_sentinel.add_argument("--flight-dir", default=None,
                            help="replay through a flight recorder; "
                                 "violation dumps land here")
    p_sentinel.add_argument("--inject", action="store_true",
                            help="append a fabricated over-envelope batch "
                                 "(must exit 3: alerting-path self-test)")
    p_sentinel.set_defaults(func=_cmd_obs_sentinel)

    p_cmp = obs_sub.add_parser(
        "bench-compare",
        help="diff two BENCH_<name>.json files (or two directories of "
             "them, paired by name); non-zero exit on regression",
    )
    p_cmp.add_argument("old", help="baseline BENCH file or directory")
    p_cmp.add_argument("new", help="candidate BENCH file or directory")
    p_cmp.add_argument("--threshold", type=float, default=0.20,
                       help="relative regression tolerance on p95 latency "
                            "and throughput (default 0.20 = 20%%)")
    p_cmp.set_defaults(func=_cmd_obs_bench_compare)

    p_cache = sub.add_parser(
        "cache-stats",
        help="pretty-print cache counters from a serve-bench JSON",
    )
    p_cache.add_argument("--stats", required=True,
                         help="JSON file written by serve-bench --json")
    p_cache.set_defaults(func=_cmd_cache_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

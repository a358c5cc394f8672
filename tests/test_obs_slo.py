"""The SLO engine: rule validation, verdicts, burn windows, CLI exits."""

from __future__ import annotations

import itertools
import json
import os

import pytest

from repro.cli import main
from repro.core.dynamic import DynamicCH
from repro.errors import ReproError
from repro.graph import grid_network
from repro.obs import names
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    SLOEngine,
    SLORule,
    default_rules,
    load_rules,
    rules_from_json,
)
from repro.serve import DistanceServer


def _registry():
    registry = MetricsRegistry()
    registry.gauge(names.SERVE_EPSILON, "stretch bound")
    registry.gauge(names.SERVE_DEFERRED_EDGES, "journal depth")
    registry.histogram(
        names.SERVE_QUERY_LATENCY,
        "latency",
        buckets=(0.001, 0.01, 0.1, 1.0),
    )
    return registry


class TestSLORule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            SLORule(name="x", kind="quantile_min", metric="m", objective=1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError):
            SLORule(name="", kind="gauge_max", metric="m", objective=1.0)

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            SLORule(
                name="x", kind="quantile_max", metric="m",
                objective=1.0, quantile=1.5,
            )

    def test_burn_rate_needs_total_metric(self):
        with pytest.raises(ReproError):
            SLORule(name="x", kind="burn_rate", metric="m", objective=0.0)

    def test_burn_rate_needs_positive_budget(self):
        with pytest.raises(ReproError):
            SLORule(
                name="x", kind="burn_rate", metric="m", objective=0.0,
                total_metric="t", budget=0.0,
            )

    def test_burn_rate_windows_must_be_ordered(self):
        with pytest.raises(ReproError):
            SLORule(
                name="x", kind="burn_rate", metric="m", objective=0.0,
                total_metric="t", short_window_s=600.0, long_window_s=60.0,
            )

    def test_dict_roundtrip(self):
        rule = SLORule(
            name="miss-burn", kind="burn_rate",
            metric="repro_serve_queries_total",
            labels=(("result", "miss"),),
            objective=0.0, total_metric="repro_serve_queries_total",
            budget=0.5, factor=3.0,
        )
        assert SLORule.from_dict(rule.as_dict()) == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ReproError):
            SLORule.from_dict(
                {"name": "x", "kind": "gauge_max", "metric": "m",
                 "objective": 1.0, "severity": "page"}
            )

    @pytest.mark.parametrize("missing", ["name", "kind", "metric", "objective"])
    def test_from_dict_requires_core_fields(self, missing):
        data = {"name": "x", "kind": "gauge_max", "metric": "m",
                "objective": 1.0}
        del data[missing]
        with pytest.raises(ReproError):
            SLORule.from_dict(data)


class TestRuleLoading:
    def test_rules_from_json_rejects_non_array(self):
        with pytest.raises(ReproError):
            rules_from_json({"name": "x"})

    def test_rules_from_json_rejects_duplicates(self):
        entry = {"name": "x", "kind": "gauge_max", "metric": "m",
                 "objective": 1.0}
        with pytest.raises(ReproError):
            rules_from_json([entry, dict(entry)])

    def test_load_rules_roundtrip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([r.as_dict() for r in default_rules()]))
        assert load_rules(str(path)) == default_rules()


class TestEngineVerdicts:
    def test_no_data_is_ok(self):
        engine = SLOEngine(MetricsRegistry(), default_rules())
        statuses = engine.evaluate(now=0.0)
        assert all(not s.firing for s in statuses)
        assert any(s.reason == "no data" for s in statuses)

    def test_gauge_rule_fires_and_clears_with_transitions(self):
        registry = _registry()
        engine = SLOEngine(registry, default_rules())
        registry.get(names.SERVE_EPSILON).set(0.15)
        assert [s.rule.name for s in engine.evaluate(now=1.0) if s.firing] == [
            "epsilon-exact"
        ]
        registry.get(names.SERVE_EPSILON).set(0.0)
        assert not [s for s in engine.evaluate(now=2.0) if s.firing]
        events = [(t["rule"], t["event"]) for t in engine.transitions]
        assert events == [
            ("epsilon-exact", "fire"),
            ("epsilon-exact", "clear"),
        ]

    def test_quantile_rule_judges_the_histogram(self):
        registry = _registry()
        engine = SLOEngine(registry, default_rules())
        latency = registry.get(names.SERVE_QUERY_LATENCY)
        for _ in range(100):
            latency.observe(0.5)  # p99 = 1.0 edge > 0.05 objective
        (firing,) = [s for s in engine.evaluate(now=1.0) if s.firing]
        assert firing.rule.name == "query-latency-p99"
        assert firing.value > 0.05

    def test_verdict_gauges_land_in_the_snapshot(self):
        registry = _registry()
        engine = SLOEngine(registry, default_rules())
        registry.get(names.SERVE_EPSILON).set(0.15)
        engine.evaluate(now=1.0)
        ok = registry.get(names.SLO_OK)
        assert ok.value(rule="epsilon-exact") == 0
        assert ok.value(rule="deferred-journal-empty") == 1
        value = registry.get(names.SLO_VALUE)
        assert value.value(rule="epsilon-exact") == pytest.approx(0.15)

    def test_engine_reattaches_to_a_restored_snapshot(self):
        # The CLI path: judge a snapshot written by another engine.
        registry = _registry()
        SLOEngine(registry, default_rules())
        registry.get(names.SERVE_EPSILON).set(0.15)
        restored = MetricsRegistry.restore(registry.snapshot())
        engine = SLOEngine(restored, default_rules())
        assert [s.rule.name for s in engine.evaluate(now=0.0) if s.firing] == [
            "epsilon-exact"
        ]


class TestBurnRate:
    def _rule(self, **overrides):
        kwargs = dict(
            name="miss-burn", kind="burn_rate",
            metric="repro_serve_queries_total",
            labels=(("result", "miss"),),
            objective=0.0, total_metric="repro_serve_queries_total",
            budget=0.1, factor=2.0,
            short_window_s=60.0, long_window_s=600.0,
        )
        kwargs.update(overrides)
        return SLORule(**kwargs)

    def _setup(self):
        registry = MetricsRegistry()
        queries = registry.counter(
            names.SERVE_QUERIES, "served queries", ("result",)
        )
        engine = SLOEngine(registry, [self._rule()])
        return registry, queries, engine

    def test_fires_when_both_windows_burn(self):
        _registry_, queries, engine = self._setup()
        now = 0.0
        # 50% misses against a 10% budget = 5x burn in every window.
        for _ in range(100):
            now += 10.0
            queries.inc(result="hit")
            queries.inc(result="miss")
            statuses = engine.tick(now=now)
        (status,) = statuses
        assert status.firing
        assert status.windows["short"] > 2.0
        assert status.windows["long"] > 2.0

    def test_short_window_clears_first_when_the_burn_stops(self):
        _registry_, queries, engine = self._setup()
        now = 0.0
        for _ in range(100):
            now += 10.0
            queries.inc(result="hit")
            queries.inc(result="miss")
            engine.tick(now=now)
        assert engine.transitions[-1]["event"] == "fire"
        # Healthy traffic: misses stop, hits continue.  The short window
        # drains within 60 s, so the alert clears long before the long
        # window forgets the burst.
        for _ in range(12):
            now += 10.0
            queries.inc(result="hit")
            (status,) = engine.tick(now=now)
        assert not status.firing
        assert status.windows["short"] <= 2.0
        assert status.windows["long"] > 2.0  # burst still in the long window
        assert engine.transitions[-1]["event"] == "clear"

    def test_one_blip_does_not_fire(self):
        _registry_, queries, engine = self._setup()
        now = 0.0
        # Mostly healthy traffic with a single 1-tick miss blip: the
        # short window spikes but the long window stays under 2x.
        for i in range(60):
            now += 10.0
            for _ in range(10):
                queries.inc(result="hit")
            if i == 58:
                queries.inc(result="miss")
            (status,) = engine.tick(now=now)
            assert not status.firing

    def test_no_traffic_is_zero_burn(self):
        _registry_, _queries_, engine = self._setup()
        (status,) = engine.tick(now=10.0)
        assert status.value == 0.0
        assert not status.firing

    def test_fresh_engine_judges_the_lifetime_fraction(self):
        # One-shot evaluation of a restored snapshot: a single tick sees
        # the counters as the whole history (baseline zero).
        registry, queries, engine = self._setup()
        for _ in range(10):
            queries.inc(result="miss")
        (status,) = engine.tick(now=5.0)
        assert status.firing  # 100% misses vs 10% budget = 10x burn


def _docs_rules():
    """The JSON example block of docs/slo.md's "Custom rules" section."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "slo.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split("## Custom rules", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    return rules_from_json(json.loads(block))


def _served_server(publishes=4):
    """A CH server with *publishes* publishes; each epoch reads six fresh
    pairs (misses) and repeats one of them (a hit)."""
    server = DistanceServer(DynamicCH(grid_network(4, 4, seed=3)), workers=1)
    u, v, w = next(iter(server.snapshot().graph.edges()))
    pairs = list(itertools.combinations(range(16), 2))
    for epoch in range(publishes + 1):
        if epoch:
            server.apply([((u, v), w * 2 if epoch % 2 else w)])
        for s, t in pairs[6 * epoch : 6 * epoch + 6]:
            server.distance(s, t)
        server.distance(*pairs[6 * epoch])
    return server


class TestServerSelectors:
    def test_docs_miss_rule_counts_misses_across_epochs(self):
        rules = {rule.name: rule for rule in _docs_rules()}
        miss = rules["miss-burn"]
        assert miss.labels == (("result", "miss"),)
        server = _served_server(publishes=4)
        assert server.epoch == 4
        statuses = SLOEngine(server.metrics, list(rules.values())).tick(now=0.0)
        (status,) = [s for s in statuses if s.rule.name == "miss-burn"]
        stats = server.cache.stats
        assert stats.misses == 5 * 6 and stats.hits == 5
        share = stats.misses / (stats.misses + stats.hits)
        assert status.value == pytest.approx(share / miss.budget)
        assert status.firing  # 86% misses: 1.71x a 50% budget > 1.5x

    @pytest.mark.parametrize(
        "selectors",
        [
            {"labels": (("epoch", "0"), ("result", "miss"))},
            {"labels": (("result", "miss"),), "total_labels": (("epoch", "0"),)},
        ],
        ids=["bad", "total"],
    )
    def test_mismatched_selector_raises(self, selectors):
        server = _served_server(publishes=1)
        rule = SLORule(
            name="stale", kind="burn_rate", metric=names.SERVE_QUERIES,
            objective=0.0, total_metric=names.SERVE_QUERIES, **selectors,
        )
        engine = SLOEngine(server.metrics, [rule])
        with pytest.raises(ReproError, match=r"labels are \('result',\)"):
            engine.tick(now=0.0)

    def test_missing_family_reads_zero(self):
        rule = SLORule(
            name="absent", kind="burn_rate", metric="repro_not_registered",
            labels=(("result", "miss"),), objective=0.0,
            total_metric="repro_not_registered",
        )
        (status,) = SLOEngine(MetricsRegistry(), [rule]).tick(now=0.0)
        assert status.value == 0.0 and not status.firing

    def test_cli_exits_1_on_mismatched_selector(self, tmp_path, capsys):
        server = _served_server(publishes=1)
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(server.metrics.snapshot()))
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "stale", "kind": "burn_rate", "objective": 0,
             "metric": names.SERVE_QUERIES,
             "labels": {"result": "miss", "epoch": "0"},
             "total_metric": names.SERVE_QUERIES},
        ]))
        assert main(
            ["obs", "slo", "--metrics", str(metrics), "--rules", str(rules)]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestCli:
    def _write_snapshot(self, tmp_path, epsilon):
        registry = _registry()
        SLOEngine(registry, default_rules())
        registry.get(names.SERVE_EPSILON).set(epsilon)
        path = tmp_path / f"metrics-{epsilon}.json"
        path.write_text(json.dumps(registry.snapshot()))
        return str(path)

    def test_exit_0_when_nothing_fires(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, 0.0)
        assert main(["obs", "slo", "--metrics", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_exit_3_when_firing(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, 0.15)
        assert main(["obs", "slo", "--metrics", path]) == 3
        captured = capsys.readouterr()
        assert "epsilon-exact" in captured.out
        assert "FIRING" in captured.out

    def test_json_format(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, 0.15)
        assert main(["obs", "slo", "--metrics", path, "--format", "json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["firing"] == ["epsilon-exact"]

    def test_custom_rules_file(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, 0.15)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "latency-only", "kind": "quantile_max",
             "metric": names.SERVE_QUERY_LATENCY, "objective": 10.0},
        ]))
        # Custom rules ignore epsilon entirely -> nothing fires.
        assert main(
            ["obs", "slo", "--metrics", path, "--rules", str(rules)]
        ) == 0


@pytest.mark.slow
class TestOverloadIntegration:
    def test_overload_bench_fires_then_clears(self):
        from repro.serve.bench import BenchConfig, overload_bench

        result = overload_bench(
            BenchConfig(
                vertices=60,
                oracle="ch",
                seed=3,
                overload_batches=8,
                overload_batch=4,
                stretch_queries=30,
                high_watermark=2,
                low_watermark=1,
            )
        )
        fired = {
            t["rule"] for t in result.slo["transitions"]
            if t["event"] == "fire"
        }
        assert "epsilon-exact" in fired
        assert result.slo["firing"] == []  # everything cleared by the end

        # The mid-run snapshot replays as firing, the final one as clean
        # — exactly the two CLI judgements CI makes.
        mid = MetricsRegistry.restore(result.metrics_degraded)
        assert SLOEngine(mid, default_rules()).firing()
        final = MetricsRegistry.restore(result.metrics)
        assert not SLOEngine(final, default_rules()).firing()

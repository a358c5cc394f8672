"""Tests for repro.obs.bench and the `repro obs` CLI group."""

import json
import math

import pytest

from repro.cli import main
from repro.obs.bench import (
    BenchRecord,
    compare_bench,
    latency_percentiles,
    load_bench,
    pair_bench_dirs,
    write_bench,
)


class TestLatencyPercentiles:
    def test_empty_is_empty(self):
        assert latency_percentiles([]) == {}

    def test_single_sample(self):
        stats = latency_percentiles([0.001])
        assert stats["p50"] == stats["p99"] == stats["max"] == pytest.approx(1000.0)

    def test_known_distribution(self):
        # 1..100 microseconds, given in seconds, shuffled.
        samples = [i * 1e-6 for i in range(100, 0, -1)]
        stats = latency_percentiles(samples)
        assert stats["p50"] == pytest.approx(50.5)
        assert stats["p95"] == pytest.approx(95.05)
        assert stats["p99"] == pytest.approx(99.01)
        assert stats["mean"] == pytest.approx(50.5)
        assert stats["max"] == pytest.approx(100.0)


class TestWriteLoad:
    def _record(self, p95=100.0, qps=5000.0):
        return BenchRecord(
            name="unit",
            config={"oracle": "ch"},
            latency_us={"p50": 40.0, "p95": p95},
            throughput_qps=qps,
            ratios={"ops_per_aff_budget": 0.08},
            index={"shortcuts": 1914.0},
        )

    def test_round_trip(self, tmp_path):
        path = write_bench(self._record(), str(tmp_path))
        assert path.endswith("BENCH_unit.json")
        data = load_bench(path)
        assert data["bench_schema_version"] == 1
        assert data["name"] == "unit"
        assert data["latency_us"]["p95"] == 100.0
        assert data["throughput_qps"] == 5000.0

    def test_hyphens_and_dots_allowed_in_names(self, tmp_path):
        record = self._record()
        record.name = "exp1_fig2a-2e.v2"
        assert "BENCH_exp1_fig2a-2e.v2.json" in write_bench(record, str(tmp_path))

    def test_invalid_name_rejected(self, tmp_path):
        record = self._record()
        record.name = "../escape"
        with pytest.raises(ValueError):
            write_bench(record, str(tmp_path))

    def test_load_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"whatever": 1}))
        with pytest.raises(ValueError):
            load_bench(str(path))


class TestCompare:
    def _pair(self, old_p95=100.0, new_p95=100.0, old_qps=1000.0, new_qps=1000.0):
        old = {
            "name": "unit",
            "latency_us": {"p50": 40.0, "p95": old_p95},
            "throughput_qps": old_qps,
            "ratios": {"r": 1.0},
            "index": {},
        }
        new = {
            "name": "unit",
            "latency_us": {"p95": new_p95, "p999": 1.0},  # p999 only on new side
            "throughput_qps": new_qps,
            "ratios": {"r": 2.0},
            "index": {},
        }
        return old, new

    def test_diffs_only_the_intersection(self):
        comparison = compare_bench(*self._pair())
        metrics = {d.metric for d in comparison.deltas}
        assert metrics == {"latency_us.p95", "throughput_qps", "ratios.r"}

    def test_pct(self):
        comparison = compare_bench(*self._pair(old_p95=100.0, new_p95=150.0))
        (delta,) = [d for d in comparison.deltas if d.metric == "latency_us.p95"]
        assert delta.pct == pytest.approx(0.5)

    def test_pct_from_zero_is_inf(self):
        comparison = compare_bench(
            {"name": "a", "ratios": {"r": 0.0}}, {"name": "a", "ratios": {"r": 1.0}}
        )
        (delta,) = comparison.deltas
        assert delta.pct == math.inf

    def test_p95_regression_beyond_threshold_flags(self):
        comparison = compare_bench(*self._pair(new_p95=125.0), threshold=0.20)
        assert not comparison.ok
        assert [d.metric for d in comparison.regressions] == ["latency_us.p95"]

    def test_p95_within_threshold_passes(self):
        comparison = compare_bench(*self._pair(new_p95=115.0), threshold=0.20)
        assert comparison.ok

    def test_p95_improvement_passes(self):
        comparison = compare_bench(*self._pair(new_p95=10.0), threshold=0.20)
        assert comparison.ok

    def test_throughput_drop_flags_but_rise_does_not(self):
        down = compare_bench(*self._pair(new_qps=500.0), threshold=0.20)
        assert [d.metric for d in down.regressions] == ["throughput_qps"]
        up = compare_bench(*self._pair(new_qps=5000.0), threshold=0.20)
        assert up.ok

    def test_ungated_metrics_never_flag(self):
        # ratios.r doubles: reported as a delta, not a regression.
        comparison = compare_bench(*self._pair(), threshold=0.0)
        assert comparison.ok

    def _publish_pair(self, old_mean, new_mean, key="publish_latency_us"):
        old = {"name": "unit", "extra": {key: {"mean": old_mean}}}
        new = {"name": "unit", "extra": {key: {"mean": new_mean}}}
        return old, new

    def test_publish_latency_mean_regression_flags(self):
        # extra.*publish_latency_us.mean is gated — a publish that
        # got slower past the threshold is a regression, not a footnote.
        comparison = compare_bench(
            *self._publish_pair(10_000.0, 25_000.0), threshold=0.5
        )
        assert not comparison.ok
        assert [d.metric for d in comparison.regressions] == [
            "extra.publish_latency_us.mean"
        ]
        small = compare_bench(
            *self._publish_pair(
                1_000.0, 9_000.0, key="small_batch_publish_latency_us"
            ),
            threshold=1.0,
        )
        assert [d.metric for d in small.regressions] == [
            "extra.small_batch_publish_latency_us.mean"
        ]

    def test_publish_latency_mean_improvement_passes(self):
        comparison = compare_bench(
            *self._publish_pair(25_000.0, 2_000.0), threshold=0.5
        )
        assert comparison.ok

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_bench(*self._pair(), threshold=-0.1)


class TestPairBenchDirs:
    def _dirs(self, tmp_path, old_names, new_names):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        for names, directory in ((old_names, old_dir), (new_names, new_dir)):
            for name in names:
                write_bench(
                    BenchRecord(name=name, latency_us={"p95": 1.0}),
                    str(directory),
                )
        return str(old_dir), str(new_dir)

    def test_pairs_matching_names(self, tmp_path):
        old_dir, new_dir = self._dirs(
            tmp_path, ["a", "b", "only_old"], ["b", "a", "only_new"]
        )
        pairs, only_old, only_new = pair_bench_dirs(old_dir, new_dir)
        assert [name for name, _o, _n in pairs] == ["a", "b"]
        assert only_old == ["only_old"]
        assert only_new == ["only_new"]
        for name, old_path, new_path in pairs:
            assert load_bench(old_path)["name"] == name
            assert load_bench(new_path)["name"] == name

    def test_ignores_non_bench_files(self, tmp_path):
        old_dir, new_dir = self._dirs(tmp_path, ["a"], ["a"])
        (tmp_path / "old" / "report.txt").write_text("not a record")
        (tmp_path / "new" / "BENCH_partial.tmp").write_text("{}")
        pairs, only_old, only_new = pair_bench_dirs(old_dir, new_dir)
        assert [name for name, _o, _n in pairs] == ["a"]
        assert only_old == only_new == []


class TestObsCli:
    def _write(self, tmp_path, p95):
        record = BenchRecord(name="cli", latency_us={"p95": p95})
        return write_bench(record, str(tmp_path))

    def test_bench_compare_ok_exit_zero(self, tmp_path, capsys):
        old = self._write(tmp_path / "old", 100.0)
        new = self._write(tmp_path / "new", 110.0)
        assert main(["obs", "bench-compare", old, new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_regression_exit_three(self, tmp_path, capsys):
        old = self._write(tmp_path / "old", 100.0)
        new = self._write(tmp_path / "new", 150.0)
        assert main(["obs", "bench-compare", old, new, "--threshold", "0.2"]) == 3
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_compare_directory_mode_exit_zero(self, tmp_path, capsys):
        for directory in ("old", "new"):
            for name in ("serve", "inch2h"):
                write_bench(
                    BenchRecord(name=name, latency_us={"p95": 100.0}),
                    str(tmp_path / directory),
                )
        code = main(
            ["obs", "bench-compare", str(tmp_path / "old"), str(tmp_path / "new")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== inch2h ==" in out and "== serve ==" in out

    def test_bench_compare_directory_mode_exit_three_on_any_regression(
        self, tmp_path, capsys
    ):
        write_bench(BenchRecord(name="ok", latency_us={"p95": 100.0}),
                    str(tmp_path / "old"))
        write_bench(BenchRecord(name="ok", latency_us={"p95": 100.0}),
                    str(tmp_path / "new"))
        write_bench(BenchRecord(name="bad", latency_us={"p95": 100.0}),
                    str(tmp_path / "old"))
        write_bench(BenchRecord(name="bad", latency_us={"p95": 200.0}),
                    str(tmp_path / "new"))
        code = main(
            [
                "obs", "bench-compare",
                str(tmp_path / "old"), str(tmp_path / "new"),
                "--threshold", "0.2",
            ]
        )
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_compare_directory_mode_reports_one_sided_records(
        self, tmp_path, capsys
    ):
        write_bench(BenchRecord(name="both", latency_us={"p95": 1.0}),
                    str(tmp_path / "old"))
        write_bench(BenchRecord(name="both", latency_us={"p95": 1.0}),
                    str(tmp_path / "new"))
        write_bench(BenchRecord(name="fresh", latency_us={"p95": 1.0}),
                    str(tmp_path / "new"))
        code = main(
            ["obs", "bench-compare", str(tmp_path / "old"), str(tmp_path / "new")]
        )
        captured = capsys.readouterr()
        assert code == 0  # a brand-new benchmark has no baseline to gate on
        assert "fresh" in captured.out + captured.err

    def test_bench_compare_empty_directories_exit_one(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        code = main(
            ["obs", "bench-compare", str(tmp_path / "old"), str(tmp_path / "new")]
        )
        assert code == 1

    def test_metrics_dump_renders_saved_snapshot(self, tmp_path, capsys):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_demo_total").inc(4)
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(registry.dump_json())
        assert main(["obs", "metrics-dump", "--snapshot", str(snapshot)]) == 0
        assert "repro_demo_total 4" in capsys.readouterr().out

    def test_trace_tail_validates_and_prints(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"span": "dch.increase", "ts": 1.0, "dur_s": 0.002, "ok": True})
            + "\n"
        )
        assert main(["obs", "trace-tail", str(trace)]) == 0
        assert "dch.increase" in capsys.readouterr().out

    def test_trace_tail_flags_invalid_records(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"span": "nodots"}) + "\n")
        assert main(["obs", "trace-tail", str(trace)]) == 1

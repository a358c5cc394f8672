"""The boundedness sentinel: envelope fitting, verdicts, CLI exits."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import names
from repro.obs.registry import MetricsRegistry
from repro.obs.sentinel import (
    DEFAULT_MARGIN,
    BoundednessSentinel,
    Envelope,
    fit_envelope,
)

COMMITTED_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "results",
)


def _bench_record(aff=2.0, diff=3.0):
    return {"ratios": {"ops_per_aff_budget": aff, "ops_per_diff_budget": diff}}


def _bench_dir(tmp_path, *records):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for i, record in enumerate(records):
        (bench_dir / f"BENCH_case_{i}.json").write_text(json.dumps(record))
    return str(bench_dir)


class TestFitEnvelope:
    def test_fits_margin_times_worst_ratio(self, tmp_path):
        bench_dir = _bench_dir(
            tmp_path, _bench_record(2.0, 3.0), _bench_record(5.0, 1.0)
        )
        envelope = fit_envelope(bench_dir, margin=4.0)
        assert envelope.c_aff == pytest.approx(20.0)  # 4 x max(2, 5)
        assert envelope.c_diff == pytest.approx(12.0)  # 4 x max(3, 1)
        assert len(envelope.sources) == 2

    def test_ignores_files_without_ratios(self, tmp_path):
        bench_dir = _bench_dir(
            tmp_path, _bench_record(), {"no": "ratios"}
        )
        envelope = fit_envelope(bench_dir)
        assert envelope.sources == ("BENCH_case_0.json",)
        assert envelope.margin == DEFAULT_MARGIN

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            fit_envelope(str(tmp_path / "nope"))

    def test_nonpositive_margin_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            fit_envelope(str(tmp_path), margin=0.0)

    def test_no_usable_records_rejected(self, tmp_path):
        bench_dir = _bench_dir(tmp_path, {"no": "ratios"})
        with pytest.raises(ReproError):
            fit_envelope(bench_dir)

    def test_committed_trajectory_fits(self):
        # The repo's own BENCH trajectory must always yield an envelope
        # (CI's sentinel step depends on it).
        envelope = fit_envelope(COMMITTED_BENCH_DIR)
        assert envelope.c_aff > 0 and envelope.c_diff > 0

    def test_committed_envelope_stays_tight(self):
        # Every committed ratio block comes from one server's DCH±/IncH2H±
        # maintenance, which stays within a small constant of its
        # linearithmic ‖AFF‖ budget.  A record from a path with a looser
        # budget would widen the envelope by orders of magnitude and
        # blind the sentinel to real violations.
        envelope = fit_envelope(COMMITTED_BENCH_DIR)
        assert envelope.c_aff < 10, envelope


class TestVerdicts:
    def _sentinel(self, **kwargs):
        kwargs.setdefault("min_measure", 32.0)
        return BoundednessSentinel(Envelope(c_aff=1.0, c_diff=1.0), **kwargs)

    def test_conforming_batch_passes(self):
        sentinel = self._sentinel()
        # linearithmic(1024) >> 64 ops: far inside a c=1 envelope.
        verdict = sentinel.check(64.0, aff_norm=1024.0, diff=1024.0)
        assert not verdict.violated
        assert verdict.exceedance < 1.0
        assert sentinel.checked == 1 and not sentinel.violations

    def test_over_envelope_batch_violates(self):
        sentinel = self._sentinel()
        verdict = sentinel.check(1e9, aff_norm=64.0, diff=64.0)
        assert verdict.violated
        assert verdict.exceedance > 1.0
        assert sentinel.violations == [verdict]
        assert sentinel.worst_exceedance == verdict.exceedance

    def test_small_batches_are_skipped(self):
        sentinel = self._sentinel(min_measure=32.0)
        verdict = sentinel.check(1e9, aff_norm=8.0, diff=8.0)
        assert not verdict.violated
        assert verdict.aff_ratio is None and verdict.diff_ratio is None

    def test_check_record_extracts_currencies(self):
        sentinel = self._sentinel()
        verdict = sentinel.check_record(
            {"span": "dch.increase", "trace_id": "t1",
             "ops_total": 1e9, "aff_norm": 64.0, "diff": 64.0}
        )
        assert verdict is not None and verdict.violated
        assert verdict.span == "dch.increase"
        assert verdict.trace_id == "t1"

    @pytest.mark.parametrize(
        "record",
        [
            {"span": "serve.query"},  # no currencies at all
            {"ops_total": True, "aff_norm": 64.0},  # bool is not a count
            {"ops_total": "many", "aff_norm": 64.0},
            {"ops_total": 10.0},  # ops without any measure
            {"ops_total": 10.0, "aff_norm": "big"},
        ],
    )
    def test_check_record_tolerates_uncheckable_records(self, record):
        sentinel = self._sentinel()
        assert sentinel.check_record(record) is None
        assert sentinel.checked == 0

    def test_registry_metrics(self):
        registry = MetricsRegistry()
        sentinel = BoundednessSentinel(
            Envelope(c_aff=1.0, c_diff=1.0), registry=registry
        )
        sentinel.check(64.0, aff_norm=1024.0)
        sentinel.check(1e9, aff_norm=64.0)
        assert registry.get(names.OBS_SENTINEL_CHECKS).total() == 2
        assert registry.get(names.OBS_SENTINEL_VIOLATIONS).total() == 1
        assert registry.get(names.OBS_SENTINEL_WORST_RATIO).total() > 1.0

    def test_summary_is_jsonable(self):
        sentinel = self._sentinel()
        sentinel.check(1e9, aff_norm=64.0)
        summary = sentinel.summary()
        json.dumps(summary)
        assert summary["checked"] == 1
        assert len(summary["violations"]) == 1
        assert summary["envelope"]["c_aff"] == 1.0


class TestCli:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            {"span": "dch.increase", "ts": 1.0, "dur_s": 0.002, "ok": True,
             "trace_id": "t1", "span_id": "s1", "parent_id": None,
             "ops_total": 500.0, "aff_norm": 200.0, "diff": 150.0},
            {"span": "serve.query", "ts": 2.0, "dur_s": 0.0001, "ok": True,
             "trace_id": "t2", "span_id": "s2", "parent_id": None},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return str(path)

    def test_clean_trace_exits_0(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        bench_dir = _bench_dir(tmp_path, _bench_record(2.0, 3.0))
        assert main(
            ["obs", "sentinel", trace, "--bench-dir", bench_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "checked 1 maintenance batch(es)" in out
        assert "violation" not in out

    def test_injected_batch_exits_3_and_dumps(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        bench_dir = _bench_dir(tmp_path, _bench_record(2.0, 3.0))
        flight_dir = tmp_path / "flight"
        assert main(
            ["obs", "sentinel", trace, "--bench-dir", bench_dir,
             "--inject", "--flight-dir", str(flight_dir)]
        ) == 3
        dumps = [p for p in os.listdir(flight_dir) if "sentinel" in p]
        assert dumps, "expected a sentinel flight dump"
        payload = json.loads((flight_dir / dumps[0]).read_text())
        assert payload["trigger"] == "sentinel"
        assert payload["sentinel"]["violations"]

    def test_tight_margin_flags_the_real_trace(self, tmp_path):
        # With a sub-unity margin over tiny committed ratios even the
        # well-behaved batch breaks the envelope: exit 3 without --inject.
        trace = self._trace(tmp_path)
        bench_dir = _bench_dir(tmp_path, _bench_record(0.001, 0.001))
        assert main(
            ["obs", "sentinel", trace, "--bench-dir", bench_dir]
        ) == 3

    def test_missing_bench_dir_is_an_error(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        code = main(
            ["obs", "sentinel", trace, "--bench-dir", str(tmp_path / "nope")]
        )
        assert code not in (0, 3)

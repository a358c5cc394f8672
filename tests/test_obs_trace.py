"""Tests for repro.obs.trace: sinks, schema, and the no-sink overhead gate."""

import json
import math
import timeit

import pytest

from repro.obs import trace
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TraceSchemaError,
    get_sink,
    set_sink,
    span,
    use_sink,
    validate_record,
)


@pytest.fixture(autouse=True)
def _no_leftover_sink():
    """Every test starts and ends with tracing off."""
    assert get_sink() is None
    yield
    set_sink(None)


class TestSpans:
    def test_no_sink_returns_inactive_span(self):
        sp = span("dch.increase")
        assert sp.active is False
        with sp as inner:
            inner.set(ignored=1)  # must be a silent no-op

    def test_null_span_is_shared(self):
        assert span("a.b") is span("c.d")

    def test_record_emitted_with_fields(self):
        sink = MemorySink()
        with use_sink(sink):
            with span("dch.increase", delta=3) as sp:
                assert sp.active is True
                sp.set(changed=7)
        (record,) = sink.records
        assert record["span"] == "dch.increase"
        assert record["ok"] is True
        assert record["delta"] == 3
        assert record["changed"] == 7
        assert record["dur_s"] >= 0
        validate_record(record)

    def test_exception_marks_ok_false_and_propagates(self):
        sink = MemorySink()
        with use_sink(sink):
            with pytest.raises(RuntimeError):
                with span("dch.decrease"):
                    raise RuntimeError("boom")
        (record,) = sink.records
        assert record["ok"] is False

    def test_non_finite_fields_are_stringified(self):
        sink = MemorySink()
        with use_sink(sink):
            with span("dch.increase") as sp:
                sp.set(old_weight=math.inf)
        assert sink.records[0]["old_weight"] == "inf"

    def test_set_sink_returns_previous_and_use_sink_restores(self):
        first, second = MemorySink(), MemorySink()
        assert set_sink(first) is None
        with use_sink(second):
            assert get_sink() is second
            with span("a.b"):
                pass
        assert get_sink() is first
        assert set_sink(None) is first
        assert second.records and not first.records


class TestMemorySink:
    def test_maxlen_bounds_memory(self):
        sink = MemorySink(maxlen=3)
        for i in range(5):
            sink.emit({"seq": i})
        assert [r["seq"] for r in sink.records] == [2, 3, 4]
        assert len(sink) == 3

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            MemorySink(maxlen=0)

    def test_records_is_a_copy(self):
        sink = MemorySink()
        sink.emit({"seq": 0})
        copy = sink.records
        copy.clear()
        assert len(sink.records) == 1

    def test_clear(self):
        sink = MemorySink()
        sink.emit({"seq": 0})
        sink.clear()
        assert sink.records == []

    def test_concurrent_emit_loses_nothing_under_the_bound(self):
        import threading

        sink = MemorySink(maxlen=100_000)
        n, workers = 2000, 4

        def _hammer(worker):
            for i in range(n):
                sink.emit({"worker": worker, "seq": i})

        threads = [
            threading.Thread(target=_hammer, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = sink.records
        assert len(records) == n * workers
        for w in range(workers):
            seqs = [r["seq"] for r in records if r["worker"] == w]
            assert seqs == sorted(seqs)  # per-thread order preserved


class TestJsonlSink:
    def test_lines_are_valid_json_and_schema_clean(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink, use_sink(sink):
            with span("inch2h.increase") as sp:
                sp.set(delta=1, weight=math.inf)  # inf -> stringified
            with span("inch2h.decrease"):
                pass
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_record(json.loads(line))

    def test_creates_missing_parent_directory(self, tmp_path):
        # CI points --trace into a bench-out/ dir that doesn't exist yet.
        path = tmp_path / "fresh" / "dir" / "trace.jsonl"
        with JsonlSink(str(path)) as sink, use_sink(sink):
            with span("a.b"):
                pass
        assert len(path.read_text().splitlines()) == 1

    def test_appends_across_reopens(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            with JsonlSink(str(path)) as sink, use_sink(sink):
                with span("a.b"):
                    pass
        assert len(path.read_text().splitlines()) == 2

    def test_buffered_mode_writes_every_n_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path), buffer_records=3)
        try:
            for i in range(2):
                sink.emit({"seq": i})
            assert path.read_text() == ""  # still buffered
            sink.emit({"seq": 2})  # hits the threshold
            assert len(path.read_text().splitlines()) == 3
        finally:
            sink.close()

    def test_buffered_mode_flushes_on_flush_and_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path), buffer_records=1000)
        sink.emit({"seq": 0})
        sink.flush()
        assert len(path.read_text().splitlines()) == 1
        sink.emit({"seq": 1})
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_negative_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "t.jsonl"), buffer_records=-1)


class TestSchema:
    def _good(self):
        return {"span": "dch.increase", "ts": 1.0, "dur_s": 0.5, "ok": True}

    def test_valid_record_passes(self):
        record = self._good()
        record["ops"] = {"queue_pop": 3}
        record["note"] = None
        assert validate_record(record) is record

    @pytest.mark.parametrize("missing", ["span", "ts", "dur_s", "ok"])
    def test_missing_required_field(self, missing):
        record = self._good()
        del record[missing]
        with pytest.raises(TraceSchemaError):
            validate_record(record)

    @pytest.mark.parametrize(
        "name", ["nodots", "Upper.case", ".leading", "a.", "a..b", "1a.b"]
    )
    def test_bad_span_names(self, name):
        record = self._good()
        record["span"] = name
        with pytest.raises(TraceSchemaError):
            validate_record(record)

    def test_bad_scalar_types(self):
        for key, value in [
            ("ts", "yesterday"),
            ("dur_s", -1.0),
            ("ok", 1),
            ("extra", [1, 2]),
            ("ops", ["not", "a", "dict"]),
        ]:
            record = self._good()
            record[key] = value
            with pytest.raises(TraceSchemaError):
                validate_record(record)

    def test_bad_ops_counts(self):
        record = self._good()
        record["ops"] = {"queue_pop": -1}
        with pytest.raises(TraceSchemaError):
            validate_record(record)
        record["ops"] = {"queue_pop": True}
        with pytest.raises(TraceSchemaError):
            validate_record(record)

    def test_non_dict_record(self):
        with pytest.raises(TraceSchemaError):
            validate_record(["not", "a", "record"])

    def test_trace_id_fields_accepted(self):
        record = self._good()
        record.update(trace_id="abcd", span_id="ef01", parent_id=None)
        assert validate_record(record) is record
        record["parent_id"] = "1234"
        assert validate_record(record) is record

    @pytest.mark.parametrize(
        "key, value",
        [("trace_id", 7), ("span_id", None), ("parent_id", 12)],
    )
    def test_bad_trace_id_types(self, key, value):
        record = self._good()
        record[key] = value
        with pytest.raises(TraceSchemaError):
            validate_record(record)


class TestNoSinkOverhead:
    """A disabled span costs a single dict lookup.

    Tier-1 checks it without a clock: the disabled path hands back the
    shared no-op span and builds no :class:`Span`.  The wall-clock
    comparison of ``span(name)`` against a bare dict ``.get`` (the
    floor for "one dict lookup plus a function call") is a ``slow``
    test: its bound is loose, but a ratio of two timings still depends
    on the host.
    """

    def test_disabled_span_is_the_shared_no_op(self, monkeypatch):
        built = []
        monkeypatch.setattr(trace, "Span", lambda *args: built.append(args))
        first = span("dch.increase")
        assert first is trace._NULL_SPAN
        for name in ("dch.increase", "serve.query", "inch2h.decrease.propagate"):
            assert span(name) is first
            assert span(name, delta=1, epoch=3) is first
            with span(name) as sp:
                assert sp is first
                sp.set(hit=True)
        assert built == []

    @pytest.mark.slow
    def test_disabled_span_is_about_one_dict_lookup(self):
        assert get_sink() is None
        n = 50_000
        baseline_stmt = "d.get('sink')"
        span_stmt = "span('dch.increase')"
        baseline = min(
            timeit.repeat(
                baseline_stmt, setup="d = {'sink': None}", number=n, repeat=5
            )
        )
        cost = min(
            timeit.repeat(
                span_stmt,
                setup="from repro.obs.trace import span",
                number=n,
                repeat=5,
            )
        )
        per_call_us = cost / n * 1e6
        # Absolute ceiling: far below any real maintenance call, far
        # above interpreter noise.
        assert per_call_us < 5.0, f"disabled span costs {per_call_us:.3f}us"
        # Relative ceiling vs the dict-lookup floor (function call
        # overhead included, hence the generous factor).
        assert cost < baseline * 25, (
            f"disabled span {cost / n * 1e9:.0f}ns vs dict.get "
            f"{baseline / n * 1e9:.0f}ns"
        )

    def test_active_span_still_cheap_enough_to_always_compile(self):
        # Sanity: enabling tracing must not be pathological either
        # (<~100us per span on any machine).
        sink = MemorySink()
        with use_sink(sink):
            n = 1000
            cost = timeit.timeit(
                "\nwith span('dch.increase') as sp:\n    sp.set(delta=1)\n",
                setup="from repro.obs.trace import span",
                number=n,
            )
        assert cost / n < 100e-6
        assert len(sink.records) == n

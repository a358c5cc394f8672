"""Trace-context propagation: nesting, thread pools, process boundaries.

The contract under test (docs/observability.md, "Trace-context
propagation"): every span opened inside another span inherits its
``trace_id`` and records the parent's ``span_id`` as ``parent_id``;
worker threads carry the submitting context via an explicit
``current_context()`` / ``use_context()`` hand-off; across a process
boundary the context travels as ``TraceContext.to_dict()`` and a worker
handed junk degrades gracefully to a fresh root trace — it must never
crash.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.graph import grid_network
from repro.obs.context import (
    TraceContext,
    build_trace_trees,
    current_context,
    new_span_id,
    new_trace_id,
    render_trace_tree,
    trace_summaries,
    use_context,
)
from repro.obs.trace import MemorySink, get_sink, set_sink, span, use_sink


@pytest.fixture(autouse=True)
def _no_leftover_sink():
    """Every test starts and ends with tracing off."""
    assert get_sink() is None
    yield
    set_sink(None)


class TestTraceContext:
    def test_ids_are_hex_and_distinct(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        assert new_trace_id() != new_trace_id()
        int(new_trace_id(), 16)  # must parse as hex

    def test_roundtrip_through_dict(self):
        ctx = TraceContext(trace_id="abc", span_id="def")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    @pytest.mark.parametrize(
        "junk",
        [
            None,
            "not a dict",
            42,
            [],
            {},
            {"trace_id": "only-half"},
            {"span_id": "only-half"},
            {"trace_id": None, "span_id": "x"},
            {"trace_id": 7, "span_id": "x"},
        ],
    )
    def test_from_dict_tolerates_junk(self, junk):
        assert TraceContext.from_dict(junk) is None

    def test_no_context_outside_spans(self):
        assert current_context() is None

    def test_use_context_sets_and_restores(self):
        ctx = TraceContext("t1", "s1")
        with use_context(ctx):
            assert current_context() is ctx
        assert current_context() is None

    def test_use_context_none_isolates(self):
        outer = TraceContext("t1", "s1")
        with use_context(outer), use_context(None):
            assert current_context() is None


class TestSpanNesting:
    def test_root_span_starts_fresh_trace(self):
        sink = MemorySink()
        with use_sink(sink):
            with span("serve.query"):
                pass
        (record,) = sink.records
        assert record["trace_id"] and record["span_id"]
        assert record["parent_id"] is None

    def test_nested_spans_share_trace_and_link_parent(self):
        sink = MemorySink()
        with use_sink(sink):
            with span("serve.apply"):
                with span("dch.increase"):
                    with span("dch.increase.seed"):
                        pass
                with span("serve.publish"):
                    pass
        seed, inc, publish, apply_ = sink.records  # close order
        assert apply_["span"] == "serve.apply"
        trace_id = apply_["trace_id"]
        assert all(r["trace_id"] == trace_id for r in sink.records)
        assert inc["parent_id"] == apply_["span_id"]
        assert publish["parent_id"] == apply_["span_id"]
        assert seed["parent_id"] == inc["span_id"]
        span_ids = {r["span_id"] for r in sink.records}
        assert len(span_ids) == 4

    def test_sibling_roots_get_distinct_traces(self):
        sink = MemorySink()
        with use_sink(sink):
            with span("serve.query"):
                pass
            with span("serve.query"):
                pass
        first, second = sink.records
        assert first["trace_id"] != second["trace_id"]

    def test_context_restored_after_exception(self):
        sink = MemorySink()
        with use_sink(sink):
            with pytest.raises(RuntimeError):
                with span("serve.apply"):
                    raise RuntimeError("boom")
            assert current_context() is None


class TestThreadPoolPropagation:
    """query_many hands the submitting context to its worker threads."""

    def test_query_many_workers_share_the_outer_trace(self):
        # Only oracles without distance_many (Dijkstra, ResilientOracle)
        # take the per-pair pool.
        from repro.core.oracle import DijkstraOracle
        from repro.serve.server import DistanceServer

        oracle = DijkstraOracle(grid_network(4, 4, seed=1))
        sink = MemorySink()
        server = DistanceServer(oracle, workers=2)
        try:
            pairs = [(s, t) for s in range(4) for t in range(4, 8)]
            with use_sink(sink):
                with span("serve.apply") as outer:
                    server.query_many(pairs)
                    outer_span_id = outer.span_id
                    outer_trace_id = outer.trace_id
        finally:
            server.close()
        queries = [r for r in sink.records if r["span"] == "serve.query"]
        assert len(queries) == len(pairs)
        assert {r["trace_id"] for r in queries} == {outer_trace_id}
        assert {r["parent_id"] for r in queries} == {outer_span_id}

    def test_query_many_without_outer_span_roots_each_query(self):
        from repro.core.oracle import DijkstraOracle
        from repro.serve.server import DistanceServer

        oracle = DijkstraOracle(grid_network(4, 4, seed=1))
        sink = MemorySink()
        server = DistanceServer(oracle, workers=2)
        try:
            with use_sink(sink):
                server.query_many([(0, 5), (1, 6), (2, 7)])
        finally:
            server.close()
        queries = [r for r in sink.records if r["span"] == "serve.query"]
        assert len(queries) == 3
        assert all(r["parent_id"] is None for r in queries)


    def test_h2h_query_many_is_one_span_under_the_outer_span(self):
        from repro.core.dynamic import DynamicH2H
        from repro.serve.server import DistanceServer

        oracle = DynamicH2H(grid_network(4, 4, seed=1))
        sink = MemorySink()
        server = DistanceServer(oracle, workers=2)
        try:
            pairs = [(s, t) for s in range(4) for t in range(4, 8)]
            with use_sink(sink):
                with span("serve.apply") as outer:
                    server.query_many(pairs)
                    outer_span_id = outer.span_id
                    outer_trace_id = outer.trace_id
        finally:
            server.close()
        assert not [r for r in sink.records if r["span"] == "serve.query"]
        (batch,) = [r for r in sink.records if r["span"] == "serve.query_many"]
        assert batch["trace_id"] == outer_trace_id
        assert batch["parent_id"] == outer_span_id
        assert (batch["epoch"], batch["pairs"]) == (0, len(pairs))


def _process_worker(conn, ctx_dict) -> None:
    """Spawned-process worker: rebuild the context, open one span.

    Module-level so the spawn start method can pickle it.  Reports the
    emitted record's identifiers back through *conn*; any exception is
    reported as a string so the parent test fails loudly instead of
    hanging.
    """
    try:
        from repro.obs.context import TraceContext, use_context
        from repro.obs.trace import MemorySink, span, use_sink

        ctx = TraceContext.from_dict(ctx_dict)
        sink = MemorySink()
        with use_sink(sink), use_context(ctx):
            with span("serve.query"):
                pass
        (record,) = sink.records
        conn.send(
            ("ok", record["trace_id"], record["span_id"], record["parent_id"])
        )
    except BaseException as exc:  # pragma: no cover - failure reporting
        conn.send(("error", repr(exc), None, None))
    finally:
        conn.close()


def _run_in_spawned_process(ctx_dict):
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_process_worker, args=(child, ctx_dict))
    proc.start()
    child.close()
    try:
        assert parent.poll(60), "spawned worker produced no reply"
        reply = parent.recv()
    finally:
        proc.join(timeout=60)
        parent.close()
    assert reply[0] == "ok", f"worker failed: {reply[1]}"
    return reply[1:]


class TestProcessBoundary:
    """Contexts cross process boundaries as dicts — or degrade to roots."""

    def test_dict_context_is_carried_into_the_child(self):
        parent_ctx = TraceContext(new_trace_id(), new_span_id())
        trace_id, span_id, parent_id = _run_in_spawned_process(
            parent_ctx.to_dict()
        )
        assert trace_id == parent_ctx.trace_id
        assert parent_id == parent_ctx.span_id
        assert span_id not in (parent_ctx.span_id, None)

    @pytest.mark.parametrize("junk", [None, {"trace_id": 3}, {}])
    def test_junk_context_degrades_to_fresh_root(self, junk):
        trace_id, _span_id, parent_id = _run_in_spawned_process(junk)
        assert trace_id  # fresh root trace, not a crash
        assert parent_id is None


class TestTreeReconstruction:
    def _record(self, span_name, trace_id, span_id, parent_id, ts):
        return {
            "span": span_name,
            "ts": ts,
            "dur_s": 0.001,
            "ok": True,
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
        }

    def test_build_groups_and_nests(self):
        records = [
            self._record("dch.increase", "t1", "b", "a", 1.0),
            self._record("serve.apply", "t1", "a", None, 2.0),
            self._record("serve.query", "t2", "c", None, 3.0),
        ]
        trees = build_trace_trees(records)
        assert set(trees) == {"t1", "t2"}
        (root,) = trees["t1"]
        assert root.record["span"] == "serve.apply"
        assert [c.record["span"] for c in root.children] == ["dch.increase"]

    def test_orphans_become_roots(self):
        # The ring buffer may have evicted the parent record.
        records = [self._record("dch.increase", "t1", "b", "ghost", 1.0)]
        trees = build_trace_trees(records)
        (root,) = trees["t1"]
        assert root.record["span"] == "dch.increase"

    def test_records_without_trace_id_are_skipped(self):
        records = [{"span": "a.b", "ts": 1.0, "dur_s": 0.0, "ok": True}]
        assert build_trace_trees(records) == {}

    def test_children_sorted_by_ts(self):
        records = [
            self._record("serve.publish", "t1", "c2", "a", 5.0),
            self._record("serve.coalesce", "t1", "c1", "a", 1.0),
            self._record("serve.apply", "t1", "a", None, 6.0),
        ]
        (root,) = build_trace_trees(records)["t1"]
        assert [c.record["span"] for c in root.children] == [
            "serve.coalesce",
            "serve.publish",
        ]

    def test_render_contains_every_span_and_fields(self):
        records = [
            self._record("dch.increase", "t1", "b", "a", 1.0),
            self._record("serve.apply", "t1", "a", None, 2.0),
        ]
        records[0]["changed"] = 7
        text = render_trace_tree("t1", build_trace_trees(records)["t1"])
        assert "trace t1 — 2 span(s)" in text
        assert "serve.apply" in text and "dch.increase" in text
        assert "changed=7" in text

    def test_summaries_sorted_by_ts_with_counts(self):
        records = [
            self._record("serve.query", "t2", "q", None, 9.0),
            self._record("dch.increase", "t1", "b", "a", 1.0),
            self._record("serve.apply", "t1", "a", None, 2.0),
        ]
        rows = trace_summaries(build_trace_trees(records))
        assert [row["trace_id"] for row in rows] == ["t1", "t2"]
        assert rows[0]["spans"] == 2
        assert rows[0]["roots"] == ["serve.apply"]
        assert rows[1]["spans"] == 1

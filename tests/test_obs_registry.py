"""Unit tests for repro.obs.registry: bucket edges, exposition, restore."""

import math
import sys
import threading

import pytest

from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("repro_test_total")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total() == 3.5

    def test_rejects_negative_increment(self, registry):
        c = registry.counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("repro_q_total", labels=("epoch", "result"))
        c.inc(epoch=0, result="hit")
        c.inc(3, epoch=1, result="miss")
        assert c.value(epoch=0, result="hit") == 1
        assert c.value(epoch=1, result="miss") == 3
        assert c.value(epoch=1, result="hit") == 0
        assert c.total() == 4

    def test_wrong_label_set_raises(self, registry):
        c = registry.counter("repro_q_total", labels=("epoch",))
        with pytest.raises(ValueError):
            c.inc(shard=3)


class TestGauge:
    def test_up_down_set(self, registry):
        g = registry.gauge("repro_level")
        g.inc(5)
        g.dec(2)
        assert g.value() == 3
        g.set(7.5)
        assert g.value() == 7.5

    def test_set_function_is_read_when_the_gauge_is(self, registry):
        items = [1, 2]
        g = registry.gauge("repro_items")
        g.set_function(items.__len__)
        assert g.value() == 2
        items.append(3)
        assert g.series() == [((), 3.0)]
        assert "repro_items 3\n" in registry.expose_text()
        assert registry.snapshot()["repro_items"]["series"] == [
            {"labels": {}, "value": 3.0}
        ]

    def test_set_function_needs_an_unlabelled_gauge(self, registry):
        g = registry.gauge("repro_items", labels=("kind",))
        with pytest.raises(ValueError):
            g.set_function(lambda: 1)


class TestDerivedCounter:
    """A family with a derived part reads it on every read, added to
    what ``inc`` stored; its updates are never registry writes."""

    def _served(self, registry):
        kept = {"hits": 3, "misses": 5}
        c = registry.counter("repro_q_total", "q", labels=("result",))
        c.inc(0, result="hit")
        c.inc(2, result="miss")
        c.derive(lambda: {("hit",): kept["hits"], ("miss",): kept["misses"]})
        return c, kept

    def test_reads_add_the_derived_part(self, registry):
        c, kept = self._served(registry)
        assert (c.value(result="hit"), c.value(result="miss")) == (3, 7)
        kept["hits"] += 10
        assert c.value(result="hit") == 13
        assert c.total() == 20
        assert c.series() == [(("hit",), 13.0), (("miss",), 7.0)]
        assert all(type(v) is float for _k, v in c.series())
        assert 'repro_q_total{result="hit"} 13\n' in registry.expose_text()
        with pytest.raises(ValueError):
            c.value(shard="0")

    def test_snapshot_and_restore_carry_the_derived_values(self, registry):
        c, kept = self._served(registry)
        restored = MetricsRegistry.restore(registry.snapshot())
        assert restored.expose_text() == registry.expose_text()
        kept["misses"] += 1  # the restored copy is a plain counter
        assert restored.get("repro_q_total").value(result="miss") == 7
        assert c.value(result="miss") == 8

    def test_slo_engine_reads_it(self, registry):
        from repro.obs.slo import SLOEngine, SLORule

        self._served(registry)
        rule = SLORule(name="misses", kind="gauge_max", metric="repro_q_total",
                       labels=(("result", "miss"),), objective=5.0)
        (status,) = SLOEngine(registry, [rule]).evaluate(now=0.0)
        assert status.value == 7 and status.firing


class TestHistogramBucketEdges:
    """Observations land in the first bucket whose edge is >= value."""

    def test_value_exactly_on_edge_counts_in_that_bucket(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, 2.0, 5.0))
        h.observe(2.0)  # le="2" (Prometheus <= semantics)
        (_, counts, _, _), = h.series()
        assert counts == [0, 1, 0, 0]  # [le=1, le=2, le=5, +Inf]

    def test_value_just_above_edge_falls_to_next_bucket(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, 2.0, 5.0))
        h.observe(2.0000001)
        (_, counts, _, _), = h.series()
        assert counts == [0, 0, 1, 0]

    def test_value_beyond_last_edge_goes_to_inf(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, 2.0, 5.0))
        h.observe(100.0)
        (_, counts, _, _), = h.series()
        assert counts == [0, 0, 0, 1]

    def test_value_below_first_edge_goes_to_first_bucket(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, 2.0, 5.0))
        h.observe(0.0)
        (_, counts, _, _), = h.series()
        assert counts == [1, 0, 0, 0]

    def test_unsorted_buckets_are_sorted(self, registry):
        h = registry.histogram("repro_h", buckets=(5.0, 1.0, 2.0))
        assert h.buckets == (1.0, 2.0, 5.0)

    def test_explicit_inf_edge_is_stripped(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, math.inf))
        assert h.buckets == (1.0,)

    def test_default_bucket_presets(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)

    def test_sum_count_quantile(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(6.5)
        # Quantiles interpolate inside buckets but stay within edges.
        assert 0.0 <= h.quantile(0.25) <= 1.0
        assert 2.0 <= h.quantile(1.0) <= 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_of_empty_histogram_is_nan(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))


class TestHotPathContract:
    """What the per-call fast path (memoised label keys, ``bisect``
    bucket search) must keep from the plain path it replaced."""

    def test_concurrent_updates_lose_nothing(self, registry):
        c = registry.counter("repro_q_total", labels=("result",))
        h = registry.histogram("repro_lat", buckets=(1.0, 2.0, 5.0))
        threads, calls = 8, 10_000
        values = (1.0, 2.0, 4.0, 9.0)  # one per bucket, +Inf included
        start = threading.Barrier(threads)

        def hammer(worker):
            start.wait()
            for i in range(calls):
                c.inc(result="hit" if (worker + i) % 2 else "miss")
                h.observe(values[i % len(values)])

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid read-modify-write
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert c.value(result="hit") == c.value(result="miss") == threads * calls / 2
        assert h.count() == threads * calls
        (_, counts, total_sum, _), = h.series()
        assert counts == [threads * calls // len(values)] * len(values)
        assert total_sum == threads * calls // len(values) * sum(values)

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_wrong_label_set_raises_after_a_good_call(self, registry, kind):
        family = getattr(registry, kind)("repro_x", labels=("result",))
        update = family.observe if kind == "histogram" else (
            family.set if kind == "gauge" else family.inc
        )
        update(1.0, result="hit")  # fills the memo
        for _ in range(3):
            for wrong in ({}, {"shard": "hit"}, {"result": "hit", "shard": "0"}):
                with pytest.raises(ValueError):
                    update(1.0, **wrong)
        update(1.0, result="hit")
        assert len(family.series()) == 1

    def test_unlabelled_family_rejects_labels(self, registry):
        c = registry.counter("repro_x_total")
        c.inc()
        for _ in range(2):
            with pytest.raises(ValueError):
                c.inc(result="hit")
        assert c.value() == 1

    def test_label_values_are_keyed_by_their_text(self, registry):
        c = registry.counter("repro_q_total", labels=("result",))
        c.inc(result=1)
        c.inc(result="1")
        c.inc(result=1)
        assert c.series() == [(("1",), 3.0)]
        # 1, 1.0 and True hash alike but print differently.
        c.inc(result=True)
        c.inc(result=1.0)
        assert c.series() == [(("1",), 3.0), (("1.0",), 1.0), (("True",), 1.0)]

    def test_str_subclass_keeps_its_own_text(self, registry):
        class Shout(str):
            def __str__(self):
                return self.upper()

        c = registry.counter("repro_q_total", labels=("result",))
        c.inc(result="hit")
        c.inc(result=Shout("hit"))
        assert c.series() == [(("HIT",), 1.0), (("hit",), 1.0)]

    def test_every_edge_counts_in_its_own_bucket(self, registry):
        h = registry.histogram("repro_lat")
        for edge in DEFAULT_LATENCY_BUCKETS:
            h.observe(edge)
        h.observe(1)  # an int on the 1.0 edge
        (_, counts, _, _), = h.series()
        expected = [1] * len(DEFAULT_LATENCY_BUCKETS) + [0]
        expected[DEFAULT_LATENCY_BUCKETS.index(1.0)] += 1
        assert counts == expected

    def test_nan_and_infinities(self, registry):
        h = registry.histogram("repro_h", buckets=(1.0, 2.0))
        h.observe(float("nan"))
        h.observe(math.inf)
        h.observe(-math.inf)
        (_, counts, _, total), = h.series()
        assert counts == [1, 0, 2]  # NaN and +inf in +Inf, -inf in le=1
        assert total == 3


class TestExpositionFormat:
    def test_counter_text_format(self, registry):
        c = registry.counter("repro_q_total", "queries", labels=("result",))
        c.inc(2, result="hit")
        text = registry.expose_text()
        assert "# HELP repro_q_total queries\n" in text
        assert "# TYPE repro_q_total counter\n" in text
        assert 'repro_q_total{result="hit"} 2\n' in text

    def test_histogram_text_is_cumulative_with_inf_sum_count(self, registry):
        h = registry.histogram("repro_lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = registry.expose_text()
        assert '# TYPE repro_lat histogram\n' in text
        assert 'repro_lat_bucket{le="1"} 1\n' in text
        assert 'repro_lat_bucket{le="2"} 2\n' in text  # cumulative
        assert 'repro_lat_bucket{le="+Inf"} 3\n' in text
        assert "repro_lat_sum 11\n" in text
        assert "repro_lat_count 3\n" in text

    def test_label_values_are_escaped(self, registry):
        c = registry.counter("repro_q_total", labels=("tag",))
        c.inc(tag='a"b\nc')
        assert r'tag="a\"b\nc"' in registry.expose_text()

    def test_invalid_metric_and_label_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("0starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total", labels=("bad-label",))


class TestRegistration:
    def test_idempotent_when_shape_matches(self, registry):
        a = registry.counter("repro_x_total", labels=("epoch",))
        b = registry.counter("repro_x_total", labels=("epoch",))
        assert a is b
        assert len(registry) == 1

    def test_type_mismatch_raises(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_label_mismatch_raises(self, registry):
        registry.counter("repro_x_total", labels=("epoch",))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labels=("shard",))

    def test_names_and_contains(self, registry):
        registry.gauge("repro_b")
        registry.counter("repro_a_total")
        assert registry.names() == ["repro_a_total", "repro_b"]
        assert "repro_b" in registry
        assert registry.get("repro_missing") is None


class TestSnapshotRestore:
    def _populated(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_q_total", "q", labels=("epoch", "result"))
        c.inc(4, epoch=0, result="hit")
        c.inc(1, epoch=1, result="miss")
        registry.gauge("repro_epoch").set(1)
        h = registry.histogram("repro_lat", "lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 0.5):
            h.observe(v)
        return registry

    def test_restore_round_trips_exposition(self):
        original = self._populated()
        restored = MetricsRegistry.restore(original.snapshot())
        assert restored.expose_text() == original.expose_text()
        assert restored.snapshot() == original.snapshot()

    def test_snapshot_survives_json(self):
        import json

        original = self._populated()
        snapshot = json.loads(original.dump_json())
        restored = MetricsRegistry.restore(snapshot)
        assert restored.expose_text() == original.expose_text()

    def test_restore_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            MetricsRegistry.restore({"repro_x": {"type": "summary"}})

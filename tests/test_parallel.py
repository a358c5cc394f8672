"""Unit tests for the ParIncH2H scheduling simulation (Section 5.3)."""

from __future__ import annotations

import pytest

from repro.errors import UpdateError
from repro.h2h.indexing import h2h_indexing
from repro.h2h.parallel import (
    ParallelReport,
    build_report,
    lpt_assign,
    lpt_makespan,
    simulate_parallel_update,
)
from repro.workloads.updates import increase_batch, restore_batch, sample_edges


class TestLptMakespan:
    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_single_processor_sums(self):
        assert lpt_makespan([3, 1, 2], 1) == 6.0

    def test_many_processors_max(self):
        assert lpt_makespan([3, 1, 2], 10) == 3.0

    def test_balanced_split(self):
        assert lpt_makespan([4, 3, 3, 2], 2) == 6.0

    def test_invalid_processors(self):
        with pytest.raises(UpdateError):
            lpt_makespan([1], 0)

    def test_never_below_average_or_max(self):
        costs = [5, 4, 3, 2, 1, 1]
        for p in (1, 2, 3, 4):
            makespan = lpt_makespan(costs, p)
            assert makespan >= max(costs)
            assert makespan >= sum(costs) / p


class TestLptAssign:
    def test_partitions_every_item_once(self):
        costs = [5.0, 3.0, 8.0, 1.0, 4.0, 4.0]
        buckets = lpt_assign(costs, 3)
        assert len(buckets) == 3
        flat = sorted(i for bucket in buckets for i in bucket)
        assert flat == list(range(len(costs)))

    def test_deterministic(self):
        costs = [2.0, 2.0, 2.0, 7.0, 1.0]
        assert lpt_assign(costs, 2) == lpt_assign(costs, 2)

    def test_consistent_with_lpt_makespan(self):
        costs = [5.0, 3.0, 8.0, 1.0, 4.0, 4.0, 2.5]
        for processors in (1, 2, 3, 4):
            buckets = lpt_assign(costs, processors)
            makespan = max(
                sum(costs[i] for i in bucket) for bucket in buckets
            )
            assert makespan == lpt_makespan(costs, processors)

    def test_single_processor_gets_everything(self):
        buckets = lpt_assign([1.0, 2.0, 3.0], 1)
        assert sorted(buckets[0]) == [0, 1, 2]

    def test_rejects_nonpositive_processors(self):
        with pytest.raises(UpdateError):
            lpt_assign([1.0], 0)


class TestReport:
    def test_speedup_one_core_is_one(self):
        report = build_report([(0, 1, 5.0), (0, 2, 3.0), (1, 3, 4.0)])
        assert report.speedup(1) == pytest.approx(1.0)

    def test_speedup_monotone_in_cores(self):
        log = [(d, u, float(u % 7 + 1)) for d in range(5) for u in range(20)]
        report = build_report(log)
        previous = 0.0
        for cores in (1, 2, 4, 8):
            s = report.speedup(cores)
            assert s >= previous - 1e-12
            previous = s

    def test_speedup_bounded_by_cores(self):
        log = [(0, u, 1.0) for u in range(16)]
        report = build_report(log)
        for cores in (1, 2, 4):
            assert report.speedup(cores) <= cores + 1e-12

    def test_vertex_affinity_groups(self):
        """Same (level, vertex) records fuse into one work group."""
        report = build_report([(0, 5, 2.0), (0, 5, 3.0)])
        assert report.levels[0] == [5.0]

    def test_levels_are_barriers(self):
        # Two levels of one unit each cannot be overlapped.
        report = build_report([(0, 1, 1.0), (1, 2, 1.0)])
        assert report.parallel_time(8) == pytest.approx(2.0)
        assert report.speedup(8) == pytest.approx(1.0)

    def test_empty_report(self):
        assert ParallelReport().speedup(4) == 1.0

    def test_minimum_cost_charged(self):
        report = build_report([(0, 1, 0.0)])
        assert report.total_work == 1.0

    def test_critical_path(self):
        report = build_report([(0, 1, 4.0), (0, 2, 1.0), (1, 3, 2.0)])
        assert report.critical_path() == 6.0


class TestSimulation:
    def test_increase_simulation(self, medium_road):
        index = h2h_indexing(medium_road)
        edges = sample_edges(medium_road, 15, seed=1)
        report = simulate_parallel_update(index, increase_batch(edges, 2.0),
                                          "increase")
        assert report.total_work > 0
        assert report.speedup(4) >= 1.0
        # The simulation applies the real update.
        index.validate()
        restore = restore_batch(edges)
        report_dec = simulate_parallel_update(index, restore, "decrease")
        assert report_dec.total_work > 0
        index.validate()

    def test_larger_batches_parallelize_better(self, medium_road):
        index = h2h_indexing(medium_road)
        small_edges = sample_edges(medium_road, 2, seed=2)
        report_small = simulate_parallel_update(
            index, increase_batch(small_edges, 2.0), "increase"
        )
        simulate_parallel_update(index, restore_batch(small_edges), "decrease")
        big_edges = sample_edges(medium_road, 40, seed=3)
        report_big = simulate_parallel_update(
            index, increase_batch(big_edges, 2.0), "increase"
        )
        assert report_big.speedup(8) >= report_small.speedup(8)

    def test_invalid_direction(self, paper_h2h):
        with pytest.raises(UpdateError):
            simulate_parallel_update(paper_h2h, [], "sideways")

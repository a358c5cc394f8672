"""Benchmarks regenerating Figures 2a-2f (Exp-1: IncH2H efficiency).

* ``test_exp1_figures_2a_2e`` regenerates the four network panels and
  the affected-fraction series, asserting the paper's shape: IncH2H-
  at most IncH2H+ (on aggregate, judged on the median of ``RUNS``
  runs), both beating the recompute baseline on small batches, and a
  monotone-ish affected fraction.
* ``test_fig2f_traffic`` regenerates the update-rate-vs-time-of-day
  series from the synthetic trace.
* The ``bench_*`` micro-benchmarks time one IncH2H+/- batch at the
  Exp-1 operating point for the timing table.
"""

from __future__ import annotations

from statistics import median

import pytest

from repro.experiments import exp1
from repro.experiments.datasets import build_h2h, build_network
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.workloads.updates import increase_batch, restore_batch, sample_edges

#: Runs of the experiment whose median judges the IncH2H-/IncH2H+ ratio:
#: one run's ratio near its threshold passes or fails with host noise.
RUNS = 3


def test_exp1_figures_2a_2e(benchmark, profile, save_result):
    networks = ("ENG", "CAL", "CUS", "US")

    result = benchmark.pedantic(
        lambda: exp1.run(networks=networks, profile=profile),
        rounds=1, iterations=1,
    )
    save_result(result, "exp1_fig2a-2e")
    runs = [result] + [
        exp1.run(networks=networks, profile=profile) for _ in range(RUNS - 1)
    ]

    for name in networks:
        inc = result.series_by_name(f"{name}/IncH2H+").y
        dec = result.series_by_name(f"{name}/IncH2H-").y
        baseline = result.series_by_name(f"{name}/H2HIndexing").y[0]
        affected = result.series_by_name(f"{name}/affected").y
        # Fig 2a-2d shape: incremental beats recompute at the small end.
        assert inc[0] < baseline
        assert dec[0] < baseline
        # IncH2H- is relatively bounded as well: not slower on aggregate.
        # (Only checked once the timings are large enough to be stable.)
        inc_sums = [sum(r.series_by_name(f"{name}/IncH2H+").y) for r in runs]
        dec_sums = [sum(r.series_by_name(f"{name}/IncH2H-").y) for r in runs]
        if median(inc_sums) > 0.05:
            assert median(d / i for d, i in zip(dec_sums, inc_sums)) <= 1.25
        # Fig 2e shape: affected fraction grows with |dG| overall.
        assert affected[-1] > affected[0]


def test_fig2f_traffic(benchmark, save_result):
    result = benchmark.pedantic(exp1.run_fig2f, rounds=1, iterations=1)
    save_result(result, "exp1_fig2f")
    for series in result.series:
        rates = series.y
        # Rush hours (7-9h, 16-19h) must dominate the small hours.
        night = sum(rates[1:5]) / 4
        rush = max(rates[7:10])
        assert rush > night


@pytest.mark.parametrize("direction", ["increase", "decrease"])
def test_bench_inch2h_single_batch(benchmark, profile, direction, bench_rng):
    """Timing of one Exp-1 operating-point batch (for the report table)."""
    name = "US"
    graph = build_network(name, profile)
    index = build_h2h(name, profile)
    count = max(1, round(0.001 * graph.m))
    edges = sample_edges(graph, count, rng=bench_rng)
    inc = increase_batch(edges, 2.0)
    rest = restore_batch(edges)

    state = {"increased": False}

    def to_base():
        if state["increased"]:
            inch2h_decrease(index, rest)
            state["increased"] = False

    def to_increased():
        if not state["increased"]:
            inch2h_increase(index, inc)
            state["increased"] = True

    if direction == "increase":
        def setup():
            to_base()
            return (), {}

        def step():
            inch2h_increase(index, inc)
            state["increased"] = True
    else:
        def setup():
            to_increased()
            return (), {}

        def step():
            inch2h_decrease(index, rest)
            state["increased"] = False

    benchmark.pedantic(step, setup=setup, rounds=3, iterations=1)
    to_base()  # leave the cached index as we found it

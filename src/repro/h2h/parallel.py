"""ParIncH2H — level-synchronous parallel IncH2H (Section 5.3).

The paper parallelizes IncH2H by observing that processing the changed
super-shortcuts in non-descending order of ``depth(u)`` is also a valid
schedule (every Equation (*) dependency of ``<<u, a>>`` lives at a
strictly smaller depth), so each depth level can be processed in
parallel, with super-shortcuts sharing the same ``u`` pinned to one
processor so no two processors write the same rows.

The paper's implementation uses OpenMP threads; CPython's GIL makes real
threads useless for this CPU-bound inner loop, so this module implements
the *scheduling model* instead: it runs IncH2H once with a work log,
groups the logged per-super-shortcut costs by (level, vertex) exactly as
Section 5.3 prescribes, and computes the makespan of a longest-
processing-time (LPT) assignment of vertex groups to ``P`` processors
per level.  The reported speedup ``T_1 / T_P`` measures the parallelism
available in the workload under the paper's partitioning rule — which is
what Figures 2r-2s demonstrate (near-linear scaling, improving with
larger update batches).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import UpdateError
from repro.graph.graph import WeightUpdate
from repro.h2h.inch2h import inch2h_decrease, inch2h_increase
from repro.h2h.index import H2HIndex
from repro.obs import names
from repro.obs.trace import span

__all__ = [
    "ParallelReport",
    "simulate_parallel_update",
    "lpt_makespan",
]


def lpt_makespan(costs: Sequence[float], processors: int) -> float:
    """Makespan of the LPT (longest processing time first) schedule.

    LPT is the classic 4/3-approximation for multiprocessor scheduling;
    the paper's OpenMP runtime performs comparable greedy balancing.
    """
    if processors < 1:
        raise UpdateError(f"processors must be >= 1, got {processors}")
    if not costs:
        return 0.0
    loads = [0.0] * min(processors, len(costs))
    heapq.heapify(loads)
    for cost in sorted(costs, reverse=True):
        heapq.heapreplace(loads, loads[0] + cost)
    return max(loads)


@dataclass
class ParallelReport:
    """Outcome of a ParIncH2H scheduling simulation.

    ``levels`` maps depth -> list of per-vertex work-group costs; the
    speedup accessors evaluate the level-synchronous makespan model.
    """

    levels: Dict[int, List[float]] = field(default_factory=dict)

    @property
    def total_work(self) -> float:
        """Work of the sequential execution (T_1)."""
        return sum(sum(group) for group in self.levels.values())

    def parallel_time(self, processors: int) -> float:
        """T_P: sum over levels of the level's LPT makespan."""
        return sum(
            lpt_makespan(groups, processors) for groups in self.levels.values()
        )

    def speedup(self, processors: int) -> float:
        """``T_1 / T_P`` (1.0 for an empty workload)."""
        total = self.total_work
        if total == 0.0:
            return 1.0
        return total / self.parallel_time(processors)

    def critical_path(self) -> float:
        """T_inf: the model's speedup ceiling (largest group per level)."""
        return sum(max(groups) for groups in self.levels.values() if groups)


def build_report(work_log: Sequence[Tuple[int, int, float]]) -> ParallelReport:
    """Group a work log into Section 5.3's (level, vertex) work groups.

    Each log record is ``(depth(u), u, cost)``; records with the same
    ``u`` are fused into one group (same-processor affinity), and groups
    are keyed by level.  Every group is charged a minimum cost of 1 so
    that queue handling is not scheduled for free.
    """
    per_vertex: Dict[Tuple[int, int], float] = {}
    for level, u, cost in work_log:
        per_vertex[(level, u)] = per_vertex.get((level, u), 0.0) + max(cost, 1)
    report = ParallelReport()
    for (level, _u), cost in per_vertex.items():
        report.levels.setdefault(level, []).append(cost)
    return report


def simulate_parallel_update(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    direction: str,
) -> ParallelReport:
    """Run IncH2H on *updates* and return the ParIncH2H schedule report.

    Parameters
    ----------
    index:
        The H2H index; mutated exactly as by the sequential algorithm
        (the simulation changes accounting, not semantics).
    updates:
        The weight-update batch.
    direction:
        ``"increase"`` or ``"decrease"``.
    """
    with span(names.SPAN_PARINCH2H_SIMULATE, direction=direction) as sp:
        work_log: List[Tuple[int, int, float]] = []
        if direction == "increase":
            inch2h_increase(index, updates, work_log=work_log)
        elif direction == "decrease":
            inch2h_decrease(index, updates, work_log=work_log)
        else:
            raise UpdateError(
                f"direction must be 'increase' or 'decrease', got {direction!r}"
            )
        report = build_report(work_log)
        if sp.active:
            sp.set(
                delta=len(updates),
                levels=len(report.levels),
                total_work=report.total_work,
                critical_path=report.critical_path(),
            )
    return report

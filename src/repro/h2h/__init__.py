"""Hierarchical 2-hop index (H2H): index, queries, incremental maintenance."""

from repro.h2h.dtdhl import dtdhl_decrease, dtdhl_increase
from repro.h2h.edge_updates import h2h_delete_edge, h2h_insert_edge
from repro.h2h.inch2h import ChangedLabels, inch2h_decrease, inch2h_increase
from repro.h2h.index import H2HIndex
from repro.h2h.indexing import h2h_indexing
from repro.h2h.parallel import ParallelReport, simulate_parallel_update
from repro.h2h.query import h2h_distance
from repro.h2h.tree import TreeDecomposition

__all__ = [
    "ChangedLabels",
    "H2HIndex",
    "ParallelReport",
    "TreeDecomposition",
    "dtdhl_decrease",
    "dtdhl_increase",
    "h2h_delete_edge",
    "h2h_distance",
    "h2h_indexing",
    "h2h_insert_edge",
    "inch2h_decrease",
    "inch2h_increase",
    "simulate_parallel_update",
]

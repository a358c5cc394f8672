"""repro.serve — concurrent query serving over the dynamic oracles.

The paper keeps CH/H2H *maintainable* under weight updates; this package
keeps them *queryable* while maintenance is in flight:

* :mod:`repro.serve.epoch` — copy-on-write versions published by atomic
  epoch swap; readers are lock-free and always see one consistent index.
* :mod:`repro.serve.cache` — a bounded LRU of answers with epoch-exact
  hits and AFF-scoped invalidation, kept for oracles that answer by
  search (H2H answers straight from its labels).
* :mod:`repro.serve.aff` — turns DCH change lists into the sound
  affected-vertex sets the cache evicts by.
* :mod:`repro.serve.server` — :class:`DistanceServer`: the batched,
  thread-pooled front end.
* :mod:`repro.serve.bench` — the ``repro serve-bench`` harness.
"""

from repro.serve.aff import (
    affected_vertices,
    ch_affected_vertices,
)
from repro.serve.bench import BenchConfig, BenchResult, serve_bench
from repro.serve.cache import CacheStats, QueryCache
from repro.serve.epoch import EpochManager, EpochSnapshot
from repro.serve.server import DistanceServer, ServeReport

__all__ = [
    "BenchConfig",
    "BenchResult",
    "CacheStats",
    "DistanceServer",
    "EpochManager",
    "EpochSnapshot",
    "QueryCache",
    "ServeReport",
    "affected_vertices",
    "ch_affected_vertices",
    "serve_bench",
]

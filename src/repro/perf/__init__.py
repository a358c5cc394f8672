"""Performance layer: vectorized kernels and batch coalescing.

Two coordinated pieces (see ``docs/performance.md``):

* :mod:`repro.perf.kernels` — numpy kernels evaluating Equation (*)
  for a whole (vertex, ancestor-slice) at once; the scalar inner loops
  of ``h2h.indexing`` / ``h2h.inch2h`` and the directed variants
  delegate here, and DCH± gets a gated batched shortcut-relaxation
  kernel.
* :mod:`repro.perf.coalesce` — merge a ``Sequence[WeightUpdate]`` into
  one deduplicated per-edge net-change batch so DCH±/IncH2H± run one
  CHANGED/AFF propagation per batch instead of per update.

Every fast path is differentially tested bit-identical against the
scalar reference (``evaluate_entry`` / per-update application), which
stays available for exactly that purpose.
"""

from __future__ import annotations

from repro.perf import kernels
from repro.perf.coalesce import CoalescedBatch, coalesce_updates

__all__ = ["kernels", "CoalescedBatch", "coalesce_updates"]

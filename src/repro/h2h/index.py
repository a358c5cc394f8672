"""The H2H index object.

H2H stores, for every vertex ``u``, the distances from ``u`` to each of
its ancestors in the tree decomposition — the *distance array*
``dis(u)`` (Section 2).  A pair ``(u, a)`` with ``a`` an ancestor of
``u`` is a *super-shortcut* ``<<u, a>>``; its value is
``dis(u)[depth(a)]`` and, by Equation (*)::

    dis(u)[depth(a)] = min over v in nbr+(u) of  phi(<u, v>) + sd(v, a)

where ``sd(v, a)`` is itself readable from the distance arrays of the
two higher vertices (Equation (nabla)).

Storage layout: two padded matrices indexed ``[vertex, depth]`` —
``dis`` (float64) and ``sup`` (int32, the number of Equation (*) terms
attaining the minimum; the paper's ``sup(<<u, a>>)``).  Row ``u`` is
valid for depths ``0 .. depth(u)``; ``dis[u, depth(u)] = 0`` by
definition and carries no support.  The padded layout lets
:func:`repro.h2h.indexing.h2h_indexing` evaluate Equation (*) for a
whole vertex with vectorized numpy gathers, and the incremental
algorithms a whole tree depth through flat indices ``u * width + d``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.ch.shortcut_graph import ShortcutGraph
from repro.h2h.tree import TreeDecomposition
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["H2HIndex"]

#: A super-shortcut identified by (descendant, depth of ancestor).
SuperShortcut = Tuple[int, int]


class H2HIndex:
    """The H2H index: tree decomposition + distance/support matrices.

    Instances are produced by :func:`repro.h2h.indexing.h2h_indexing`.

    Attributes
    ----------
    sc:
        The underlying CH index; IncH2H maintains it as a subtask
        (the defining trait of the INC_H2H class, Section 3.3).
    tree:
        The tree decomposition.
    dis:
        ``dis[u, d]`` = distance from ``u`` to its depth-``d`` ancestor.
    sup:
        ``sup[u, d]`` = number of Equation (*) terms attaining it.
    """

    def __init__(
        self,
        sc: ShortcutGraph,
        tree: TreeDecomposition,
        dis: np.ndarray,
        sup: np.ndarray,
    ) -> None:
        self.sc = sc
        self.tree = tree
        self.dis = dis
        self.sup = sup

    def clone(self) -> "H2HIndex":
        """An independent copy sharing the weight-independent structure.

        The tree decomposition never changes under weight updates, so it
        is shared, and the embedded shortcut graph shares its structure
        too (:meth:`ShortcutGraph.clone`); the shortcut graph's slot
        arrays and the ``dis``/``sup`` matrices — everything maintenance
        mutates — are copied.
        """
        return H2HIndex(self.sc.clone(), self.tree, self.dis.copy(), self.sup.copy())

    def slot_weights(self) -> np.ndarray:
        """The ``(1, slots)`` shortcut weights the level-synchronous
        IncH2H± gathers from: a view of ``sc``'s slot store, whose slot
        order is the tree's ``nbr+`` CSR (one label matrix, ``D = 1``)."""
        return self.sc.slot_weights.reshape(1, -1)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.tree.n

    @property
    def height(self) -> int:
        """Number of levels of the tree decomposition."""
        return self.tree.height

    def num_super_shortcuts(self) -> int:
        """The paper's "# of SSCs" (Table 2)."""
        return self.tree.num_super_shortcuts()

    # ------------------------------------------------------------------
    # Equation (nabla) and Equation (*)
    # ------------------------------------------------------------------
    def sd_between(self, u: int, v: int, da: int) -> float:
        """``sd(v, a)`` where both *v* and ``a = anc(u)[da]`` are ancestors
        of *u* (Equation (nabla)): read from whichever of the two is
        deeper, or 0 when they coincide."""
        dv = self.tree.depth[v]
        if dv > da:
            return float(self.dis[v, da])
        if dv < da:
            return float(self.dis[self.tree.anc[u][da], dv])
        return 0.0

    def evaluate_entry(
        self, u: int, da: int, counter: Optional[OpCounter] = None
    ) -> Tuple[float, int]:
        """Evaluate Equation (*) for super-shortcut ``(u, da)`` from the
        current index; returns ``(value, support)`` without mutating."""
        ops = resolve_counter(counter)
        dis = self.dis
        depth = self.tree.depth
        anc_u = self.tree.anc[u]
        best = math.inf
        count = 0
        for v, weight in zip(self.sc.upward(u), self.sc.upward_weight_row(u)):
            ops.add("star_term")
            dv = depth[v]
            if dv > da:
                sd = dis[v, da]
            elif dv < da:
                sd = dis[anc_u[da], dv]
            else:
                sd = 0.0
            candidate = weight + sd
            if candidate < best:
                best = candidate
                count = 1
            elif candidate == best and not math.isinf(candidate):
                count += 1
        return float(best), count

    def recompute_entry(
        self, u: int, da: int, counter: Optional[OpCounter] = None
    ) -> float:
        """Recompute and store ``dis[u, da]`` / ``sup[u, da]`` from
        Equation (*) — line 23 of Algorithm 4.  Returns the new value."""
        value, support = self.evaluate_entry(u, da, counter)
        self.dis[u, da] = value
        self.sup[u, da] = support
        return value

    # ------------------------------------------------------------------
    # Vectorized Equation (*) kernels (implemented in repro.perf.kernels)
    # ------------------------------------------------------------------
    def candidate_row(self, u: int, v: int, weight: float) -> np.ndarray:
        """The Equation (*) candidates of *u* contributed by one upward
        neighbor *v* at the given shortcut weight, over every proper
        ancestor depth ``0 .. depth(u)-1``.

        Used by the batched "lines 3-12" scans of Algorithms 4/5: with
        the *old* weight it reproduces the support test of IncH2H+, with
        the *new* weight the relaxation candidates of IncH2H-.
        """
        return kernels.candidate_row(self, 0, u, v, weight)

    def candidate_block(self, u: int, depths: np.ndarray) -> np.ndarray:
        """Equation (*) candidates of *u* for the given ancestor depths,
        one row per upward neighbor (``|nbr+(u)| x len(depths)``)."""
        return kernels.candidate_block(self, u, depths)

    def distance_many(
        self, sources, targets, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """``sd(s, t)`` for every pair ``(sources[i], targets[i])``:
        the batch form of :func:`repro.h2h.query.h2h_distance`,
        bit-identical to it pair by pair (raises ``QueryError`` on an
        out-of-range id)."""
        return kernels.pos_scan_many(
            self.tree, self.dis, self.dis, sources, targets, counter
        )

    # ------------------------------------------------------------------
    # Views for tests and experiments
    # ------------------------------------------------------------------
    def distance_row(self, u: int) -> np.ndarray:
        """The valid part of ``dis(u)``: depths ``0 .. depth(u)``."""
        return self.dis[u, : int(self.tree.depth[u]) + 1]

    def snapshot(self) -> np.ndarray:
        """A copy of the full distance matrix (tests compare these)."""
        return self.dis.copy()

    def size_in_bytes(self, incremental: bool = True) -> int:
        """Approximate index size for Fig. 3b.

        Static H2H stores one ``anc`` entry (4 bytes) and one ``dis``
        entry (8 bytes) per super-shortcut plus the position arrays;
        the incremental auxiliaries (Section 5) add ``sup`` and
        ``first`` (4 bytes each) per super-shortcut — the paper's
        "about two times the memory of static H2H" note (Section 6.2).
        """
        ssc = self.num_super_shortcuts()
        pos_entries = sum(len(p) for p in self.tree.pos)
        static = 12 * ssc + 4 * pos_entries
        extra = 8 * ssc if incremental else 0
        return static + extra + self.sc.size_in_bytes(incremental)

    def validate(self) -> None:
        """Check that the tree's ``nbr+`` CSR is ``sc``'s slot order and
        every entry against Equation (*); raise on mismatch.

        O(#SSC x avg degree): meant for tests on small networks.
        """
        st = self.sc.structure
        if not (
            np.array_equal(self.tree.up_ptr, st.ptr)
            and np.array_equal(self.tree.up_idx, st.high)
        ):
            raise IndexError_("the tree's nbr+ CSR is not the shortcut slot order")
        depth = self.tree.depth
        for u in range(self.n):
            du = int(depth[u])
            if self.dis[u, du] != 0.0:
                raise IndexError_(f"dis({u})[depth({u})] must be 0")
            for da in range(du):
                value, support = self.evaluate_entry(u, da)
                if self.dis[u, da] != value:
                    raise IndexError_(
                        f"dis({u})[{da}] = {self.dis[u, da]}, "
                        f"Equation (*) gives {value}"
                    )
                if self.sup[u, da] != support:
                    raise IndexError_(
                        f"sup({u})[{da}] = {self.sup[u, da]}, actual {support}"
                    )

    def __repr__(self) -> str:
        return (
            f"H2HIndex(n={self.n}, height={self.height}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )

"""The H2H index object, undirected and directed.

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

Direction axis
--------------
The paper's algorithms extend to digraphs unchanged (Section 2), and
so does this class.  The number of label matrices ``D`` is the CH
store's (``sc.slot_weights.shape[0]``): ``D = 1`` on an undirected
network, whose ``dis``/``sup`` are ``(n, width)``, and ``D = 2`` on a
directed one (:func:`repro.directed.h2h.directed_h2h_indexing`), whose
``dis``/``sup`` are ``(2, n, width)``: matrix ``TO`` holds
``sd(u -> a)`` and matrix ``FROM`` ``sd(a -> u)``.  Matrix ``d`` adds
the weights of row ``d`` of the CH store and reads the deep Equation
(nabla) case from matrix ``D - 1 - d`` (:func:`repro.perf.kernels.other`);
on ``D = 1`` both are the one matrix.  Every method that takes a
direction takes it as the last argument ``d = 0``.

Recycled label buffers
----------------------
A serving publish clones the current index and maintains the clone
(:func:`repro.reliability.transactions.cow_apply`), so without help it
would copy both matrices whole although IncH2H± rewrites only the
entries of ``AFF``.  :meth:`H2HIndex.clone` lets a clone reuse the
matrices of the epoch before its parent instead:

* a clone keeps a *spare*: a reference to its parent's ``dis``/``sup``,
  which hold exactly the clone's labels before maintenance;
* a clone keeps a *write log*: the flat keys of every cell the IncH2H±
  level engine writes (:mod:`repro.h2h.inch2h`);
* when the clone is itself cloned, its spare is recycled if nothing else
  references it any more (the parent epoch retired and no reader pins
  it or a view of its labels) and the parent was not written after
  lending it; only the logged cells are copied into it.  In every other
  case the matrices are copied whole.

Writers outside the engine (:meth:`H2HIndex.recompute_entry`, DTDHL)
drop the log, so the next clone copies whole.
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.ch.shortcut_graph import ShortcutGraph
from repro.h2h.tree import TreeDecomposition
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["H2HIndex"]

#: A super-shortcut identified by (descendant, depth of ancestor).
SuperShortcut = Tuple[int, int]


def _refcount(array) -> int:
    return sys.getrefcount(array)


def _sole_reference_count() -> int:
    """What :func:`_refcount` reads for an array held only by the
    caller's local variable (interpreter dependent, so measured)."""
    probe = np.empty(0)
    return _refcount(probe)


_SOLE = _sole_reference_count()


class H2HIndex:
    """The H2H index: tree decomposition + distance/support matrices,
    in one direction (``D = 1``) or two (``D = 2``, directed).

    Instances are produced by :func:`repro.h2h.indexing.h2h_indexing`
    and :func:`repro.directed.h2h.directed_h2h_indexing`.

    Attributes
    ----------
    sc:
        The underlying CH index; IncH2H maintains it as a subtask
        (the defining trait of the INC_H2H class, Section 3.3).
    tree:
        The tree decomposition.
    dis:
        ``dis[u, d]`` = distance from ``u`` to its depth-``d`` ancestor
        (``dis[TO][u, d]`` and ``dis[FROM][u, d]`` at ``D = 2``).  The
        flat cell keys are the level engine's entry keys.
    sup:
        ``sup[u, d]`` = number of Equation (*) terms attaining it.
    log:
        The flat keys written since this index was cloned from its
        parent (a list of int64 arrays), or ``None``: an index that is
        not a clone, has been cloned itself, was written outside the
        engine, or logged more keys than its matrices hold cells (a full
        copy is then cheaper than replaying the log) keeps none.
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
        self.log: Optional[List[np.ndarray]] = None
        self._logged = 0
        # (parent dis, parent sup, lease) when this index is a clone.
        self._spare: Optional[tuple] = None
        # The lease shared with the spares of this index's clones:
        # ``lease[0]`` turns False when this index is written after
        # lending its matrices.
        self._lease: Optional[List[bool]] = None

    # ------------------------------------------------------------------
    # Recycled label buffers (see the module docstring)
    # ------------------------------------------------------------------
    def log_writes(self, keys: np.ndarray) -> None:
        """Record that the level engine wrote cells *keys* (flat) of
        ``dis`` and/or ``sup``."""
        if self._lease is not None:
            self._spoil_lease()
        log = self.log
        if log is not None:
            self._logged += len(keys)
            if self._logged > self.dis.size:
                self.log = None
            else:
                log.append(keys)

    def drop_log(self) -> None:
        """Cells are about to be written without logging: the next clone
        copies the matrices whole."""
        if self._lease is not None:
            self._spoil_lease()
        self.log = None

    def _spoil_lease(self) -> None:
        self._lease[0] = False
        self._lease = None

    def _clone_labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Label matrices for a clone: the recycled spare with this
        index's logged cells copied in, or fresh copies."""
        spare, self._spare = self._spare, None
        log, self.log = self.log, None
        if spare is None or log is None:
            return self.dis.copy(), self.sup.copy()
        dis, sup, lease = spare
        del spare
        if not (
            lease[0]
            and dis.base is None
            and sup.base is None
            and _refcount(dis) == _SOLE
            and _refcount(sup) == _SOLE
        ):
            return self.dis.copy(), self.sup.copy()
        if log:
            keys = np.concatenate(log)
            dis.put(keys, self.dis.take(keys))
            sup.put(keys, self.sup.take(keys))
        return dis, sup

    def clone(self) -> "H2HIndex":
        """An independent copy sharing the weight-independent structure.

        The tree decomposition never changes under weight updates, so it
        is shared, and the embedded shortcut graph shares its structure
        too (:meth:`ShortcutGraph.clone`); the shortcut graph's slot
        arrays are copied.  The ``dis``/``sup`` matrices are this
        index's spare — its parent's matrices, once no reader holds them
        — with the cells this index's maintenance wrote copied in, or
        full copies when there is no usable spare (see the module
        docstring).  Either way the clone starts bit-equal to this index
        and shares no mutable array with it; this index's own matrices
        become the clone's spare, and the clone starts a log of its own.
        """
        dis, sup = self._clone_labels()
        clone = H2HIndex(self.sc.clone(), self.tree, dis, sup)
        if self._lease is None:
            self._lease = [True]
        clone._spare = (self.dis, self.sup, self._lease)
        clone.log = []
        return clone

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def slot_weights(self) -> np.ndarray:
        """The ``(D, slots)`` shortcut weights the level-synchronous
        IncH2H± gathers from: ``sc``'s live slot store, whose slot order
        is the tree's ``nbr+`` CSR."""
        return self.sc.slot_weights

    def _matrix(self, labels: np.ndarray, d: int) -> np.ndarray:
        """Label matrix *d* of *labels* (``dis`` or ``sup``) as an
        ``(n, width)`` array: *labels* itself at ``D = 1``."""
        return labels[d] if len(self.sc.slot_weights) == 2 else labels

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.tree.n

    @property
    def height(self) -> int:
        """Number of levels of the tree decomposition."""
        return self.tree.height

    def num_super_shortcuts(self) -> int:
        """The paper's "# of SSCs" (Table 2): one per (vertex, ancestor)
        pair and label matrix."""
        return len(self.sc.slot_weights) * self.tree.num_super_shortcuts()

    # ------------------------------------------------------------------
    # Equation (nabla) and Equation (*)
    # ------------------------------------------------------------------
    def sd_between(self, u: int, v: int, da: int, d: int = 0) -> float:
        """``sd(v, a)`` where both *v* and ``a = anc(u)[da]`` are ancestors
        of *u* (Equation (nabla)): read from whichever of the two is
        deeper, or 0 when they coincide.  Matrix *d* reads ``v``'s own
        row and ``a``'s row of matrix ``other(D, d)``: ``sd(v -> a)``
        for ``TO``, ``sd(a -> v)`` for ``FROM``."""
        dv = self.tree.depth[v]
        if dv > da:
            return float(self._matrix(self.dis, d)[v, da])
        if dv < da:
            deep = self._matrix(self.dis, kernels.other(len(self.sc.slot_weights), d))
            return float(deep[self.tree.anc[u][da], dv])
        return 0.0

    def evaluate_entry(
        self, u: int, da: int, counter: Optional[OpCounter] = None, d: int = 0
    ) -> Tuple[float, int]:
        """Evaluate Equation (*) for super-shortcut ``(u, da)`` of label
        matrix *d* from the current index; returns ``(value, support)``
        without mutating."""
        dis = self._matrix(self.dis, d)
        deep = self._matrix(self.dis, kernels.other(len(self.sc.slot_weights), d))
        depth = self.tree.depth
        anc_u = self.tree.anc[u]
        best = math.inf
        count = 0
        # Row TO holds phi(u -> v), row FROM phi(v -> u).
        weights = self.sc.upward_weight_row(u, d)
        for v, weight in zip(self.sc.upward(u), weights):
            dv = depth[v]
            if dv > da:
                sd = dis[v, da]
            elif dv < da:
                sd = deep[anc_u[da], dv]
            else:
                sd = 0.0
            candidate = weight + sd
            if candidate < best:
                best = candidate
                count = 1
            elif candidate == best and not math.isinf(candidate):
                count += 1
        resolve_counter(counter).add("star_term", len(weights))
        return float(best), count

    def recompute_entry(
        self, u: int, da: int, counter: Optional[OpCounter] = None, d: int = 0
    ) -> float:
        """Recompute and store ``dis[u, da]`` / ``sup[u, da]`` of label
        matrix *d* from Equation (*) — line 23 of Algorithm 4.  Returns
        the new value."""
        value, support = self.evaluate_entry(u, da, counter, d)
        self.drop_log()
        self._matrix(self.dis, d)[u, da] = value
        self._matrix(self.sup, d)[u, da] = support
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
        one row per upward neighbor (``|nbr+(u)| x len(depths)``;
        ``D = 1`` only, for DTDHL)."""
        return kernels.candidate_block(self, u, depths)

    def distance_many(
        self, sources, targets, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """``sd(s, t)`` (``sd(s -> t)`` at ``D = 2``) for every pair
        ``(sources[i], targets[i])``: the batch form of
        :func:`repro.h2h.query.h2h_distance`, bit-identical to it pair by
        pair (raises ``QueryError`` on an out-of-range id).  Sources read
        matrix 0 and targets matrix ``D - 1``."""
        last = len(self.sc.slot_weights) - 1
        return kernels.pos_scan_many(
            self.tree,
            self._matrix(self.dis, 0),
            self._matrix(self.dis, last),
            sources,
            targets,
            counter,
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

        Static H2H stores one ``anc`` entry (4 bytes) per (vertex,
        ancestor) pair and one ``dis`` entry (8 bytes) per super-shortcut
        plus the position arrays; the incremental auxiliaries (Section 5)
        add ``sup`` per super-shortcut and ``first`` per pair (4 bytes
        each) — the paper's "about two times the memory of static H2H"
        note (Section 6.2).
        """
        pairs = self.tree.num_super_shortcuts()
        ssc = self.num_super_shortcuts()
        pos_entries = sum(len(p) for p in self.tree.pos)
        static = 4 * pairs + 8 * ssc + 4 * pos_entries
        extra = 4 * ssc + 4 * pairs if incremental else 0
        return static + extra + self.sc.size_in_bytes(incremental)

    def validate(self) -> None:
        """Check that the tree's ``nbr+`` CSR is ``sc``'s slot order and
        every entry of every label matrix against Equation (*); raise on
        mismatch.

        O(#SSC x avg degree): meant for tests on small networks.
        """
        st = self.sc.structure
        if not (
            np.array_equal(self.tree.up_ptr, st.ptr)
            and np.array_equal(self.tree.up_idx, st.high)
        ):
            raise IndexError_("the tree's nbr+ CSR is not the shortcut slot order")
        depth = self.tree.depth
        D = len(self.sc.slot_weights)
        for d in range(D):
            dis, sup = self._matrix(self.dis, d), self._matrix(self.sup, d)
            name, sup_name = ("dis", "sup") if D == 1 else (f"dis[{d}]", f"sup[{d}]")
            for u in range(self.n):
                du = int(depth[u])
                if dis[u, du] != 0.0:
                    raise IndexError_(f"{name}({u})[depth({u})] must be 0")
                for da in range(du):
                    value, support = self.evaluate_entry(u, da, None, d)
                    if dis[u, da] != value:
                        raise IndexError_(
                            f"{name}({u})[{da}] = {dis[u, da]}, "
                            f"Equation (*) gives {value}"
                        )
                    if sup[u, da] != support:
                        raise IndexError_(
                            f"{sup_name}({u})[{da}] = {sup[u, da]}, "
                            f"actual {support}"
                        )

    def __repr__(self) -> str:
        return (
            f"H2HIndex(n={self.n}, height={self.height}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )

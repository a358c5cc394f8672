"""Columnar backing store for the H2H index.

The H2H matrices ``dis`` / ``sup`` are already flat numpy arrays; what
the columnar backend changes is their *lifecycle*: ``clone()`` shares
them instead of copying (page-granular copy-on-write, like the shortcut
pages of :class:`repro.columnar.shortcut.ColumnarShortcutGraph`), and
the tree decomposition's per-vertex ``anc`` / ``pos`` arrays are
re-pointed at slices of one CSR-style ``(data, indptr)`` buffer pair so
a snapshot of the tree is two arrays rather than ``2n`` allocations.

Because IncH2H writes ``dis[u, da] = ...`` straight into the matrices
(numpy cannot intercept element writes the way the dict views do), the
maintenance entry points call :meth:`ColumnarH2HIndex.prepare_write`
once per batch before the first mutation; queries and validation never
do, so published snapshots keep sharing pages for their whole lifetime.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.columnar.shortcut import ColumnarShortcutGraph
from repro.h2h.index import H2HIndex
from repro.h2h.tree import TreeDecomposition

__all__ = ["ColumnarH2HIndex", "csrify_tree"]


def _csr_rows(rows: List[np.ndarray], dtype) -> List[np.ndarray]:
    """Re-point *rows* at slices of one flat ``(data, indptr)`` buffer."""
    if not rows:
        return rows
    lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    data = np.concatenate([np.asarray(row, dtype=dtype) for row in rows])
    return [data[indptr[i] : indptr[i + 1]] for i in range(len(rows))]


def csrify_tree(tree: TreeDecomposition) -> TreeDecomposition:
    """Convert *tree*'s ``anc`` / ``pos`` lists to CSR-slice form in place.

    Idempotent; the per-vertex arrays keep their values and dtypes but
    become zero-copy views into two contiguous buffers.  The tree is
    weight independent and never mutated after construction, so every
    clone and epoch shares the same buffers.
    """
    if getattr(tree, "_columnar_csr", False):
        return tree
    tree.anc = _csr_rows(tree.anc, np.int32)
    tree.pos = _csr_rows(tree.pos, np.int32)
    tree._columnar_csr = True
    return tree


class ColumnarH2HIndex(H2HIndex):
    """An :class:`H2HIndex` with shared-page clones over a columnar CH.

    ``dis`` and ``sup`` are the pages; ``_shared`` names the ones this
    instance currently shares with a clone or a read-only snapshot
    mapping.
    """

    _PAGES = ("dis", "sup")

    def __init__(self, sc, tree, dis, sup) -> None:
        super().__init__(sc, tree, dis, sup)
        self._shared = set()

    @classmethod
    def from_index(cls, index: H2HIndex) -> "ColumnarH2HIndex":
        """Convert a dict-backed index; returns *index* if already columnar.

        Converts the embedded shortcut graph, CSR-ifies the tree, and —
        critically — re-points ``tree.sc`` at the columnar shortcut
        graph: the multiprocess IncH2H workers rebuild their index from
        the pickled tree, so a stale dict reference there would make
        worker weights diverge from the maintained columnar weights.
        """
        if isinstance(index, ColumnarH2HIndex):
            return index
        sc = ColumnarShortcutGraph.from_shortcut_graph(index.sc)
        tree = csrify_tree(index.tree)
        tree.sc = sc
        return cls(sc, tree, index.dis, index.sup)

    def to_index(self) -> H2HIndex:
        """Materialize an equivalent dict-backed :class:`H2HIndex`."""
        return H2HIndex(
            self.sc.to_shortcut_graph(),
            self.tree,
            np.array(self.dis, copy=True),
            np.array(self.sup, copy=True),
        )

    # ------------------------------------------------------------------
    # Copy-on-write pages
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return "columnar"

    def _page_for_write(self, name: str) -> np.ndarray:
        arr = getattr(self, name)
        if name in self._shared or not arr.flags.writeable:
            arr = np.array(arr, copy=True)
            setattr(self, name, arr)
            self._shared.discard(name)
        return arr

    def prepare_write(self) -> None:
        """Take private ownership of every page before direct writes."""
        for name in self._PAGES:
            self._page_for_write(name)
        self.sc.prepare_write()

    def clone(self) -> "ColumnarH2HIndex":
        """A zero-copy clone: matrices and shortcut pages are shared."""
        dup = ColumnarH2HIndex(self.sc.clone(), self.tree, self.dis, self.sup)
        dup._shared = set(self._PAGES)
        self._shared.update(self._PAGES)
        return dup

    def __repr__(self) -> str:
        return (
            f"ColumnarH2HIndex(n={self.n}, height={self.height}, "
            f"super_shortcuts={self.num_super_shortcuts()})"
        )

"""Epoch snapshots: consistent, lock-free reads under in-flight updates.

A *snapshot* pairs an oracle frozen at one network version with a
monotonically increasing epoch number.  The manager holds exactly one
*current* snapshot; readers grab it with a single attribute read (atomic
under the interpreter lock — no reader-side locking at all) and answer
every query of a batch against that one consistent version, however
long a maintenance pass runs concurrently.  Writers prepare the next
version copy-on-write (:func:`repro.reliability.cow_apply`) and make it
visible with :meth:`EpochManager.publish` — a single reference swap, the
serving layer's only synchronization point.

The contract that makes this safe: an oracle handed to
:class:`EpochManager` is *frozen* — nothing may mutate it afterwards.
All mutation happens on clones that become the next epoch's snapshot.

With the columnar backend (:mod:`repro.columnar`) the clone feeding the
next epoch is *zero-copy*: ``clone()`` shares the flat ``dis``/``sup``
and shortcut-weight pages with the published snapshot and only copies a
page when the maintenance pass first writes it (copy-on-write), so a
publish that touches a small AFF set duplicates a few pages instead of
the whole index.  :func:`snapshot_pages_shared` makes that property
observable for tests and diagnostics.

Retired snapshots are never invalidated — a reader holding one keeps
getting exact answers for that epoch indefinitely.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["EpochSnapshot", "EpochManager", "snapshot_pages_shared"]


def _index_pages(oracle):
    """Yield ``(name, array)`` for every flat page backing *oracle*'s
    index — the ``dis``/``sup`` matrices plus the shortcut-store pages
    (``_PAGES``) of a columnar index.  Empty for array-free oracles."""
    index = getattr(oracle, "index", None)
    if index is None:
        return
    for name in ("dis", "sup"):
        arr = getattr(index, name, None)
        if isinstance(arr, np.ndarray):
            yield name, arr
        elif isinstance(arr, (tuple, list)):  # directed: (TO, FROM) pair
            for i, sub in enumerate(arr):
                if isinstance(sub, np.ndarray):
                    yield f"{name}[{i}]", sub
    sc = getattr(index, "sc", index)
    for name in getattr(sc, "_PAGES", ()):
        arr = getattr(sc, name, None)
        if isinstance(arr, np.ndarray):
            yield f"sc.{name}", arr


def snapshot_pages_shared(a, b) -> Optional[bool]:
    """Whether two oracles (or :class:`EpochSnapshot`\\ s) still share
    every backing page of their indexes.

    ``True`` means a clone has not yet copied anything (zero-copy);
    ``False`` means at least one page diverged (a write triggered
    copy-on-write, or the backend copies eagerly, as ``dict`` clones
    do).  ``None`` when the oracles expose no comparable array pages.
    """
    oa = getattr(a, "oracle", a)
    ob = getattr(b, "oracle", b)
    pages_a = dict(_index_pages(oa))
    pages_b = dict(_index_pages(ob))
    if not pages_a or pages_a.keys() != pages_b.keys():
        return None
    return all(np.shares_memory(pages_a[k], pages_b[k]) for k in pages_a)


@dataclass(frozen=True)
class EpochSnapshot:
    """One immutable published version of the served index (DESIGN.md §4b).

    Attributes
    ----------
    epoch:
        Version number; 0 for the initial index, +1 per publish.
    oracle:
        The frozen oracle (graph + index) answering for this epoch.
    affected:
        ``V_aff`` of the update that *created* this epoch (``None`` for
        the initial epoch, or when the update's AFF set was unknown and
        the whole cache was flushed).
    epsilon:
        The max-stretch bound ε of answers served from this snapshot
        (0.0 ⇒ exact).  Recorded at publish time from the deferral
        journal and raised in place by the writer when it parks more
        deltas without publishing (:meth:`raise_epsilon`), so readers
        can stamp an answer with the ε of the very snapshot that served
        it — reading a global ε after the fact races with a concurrent
        catch-up publish (docs/degraded-mode.md).
    """

    epoch: int
    oracle: object
    affected: Optional[frozenset] = field(default=None, compare=False)
    epsilon: float = field(default=0.0, compare=False)

    def raise_epsilon(self, value: float) -> None:
        """Raise this snapshot's recorded stretch bound (writer only).

        The one sanctioned mutation of a snapshot: the serialized
        writer raises ε when a degraded apply parks deltas without
        publishing a new epoch.  Monotone — ε never decreases for a
        given snapshot, so a reader that stamps an answer with a value
        read *after* computing the distance can only over-state the
        bound, never violate it.
        """
        if value > self.epsilon:
            object.__setattr__(self, "epsilon", value)

    def distance(self, s: int, t: int) -> float:
        """Shortest distance on this snapshot (no cache)."""
        return self.oracle.distance(s, t)

    @property
    def graph(self):
        """The frozen network of this epoch."""
        return self.oracle.graph


class EpochManager:
    """Publishes snapshots; readers see each publish atomically (DESIGN.md §4b).

    Reads (:attr:`current`) are lock-free; :meth:`publish` serializes
    writers so epoch numbers stay dense and monotone.
    """

    def __init__(self, oracle) -> None:
        self._current = EpochSnapshot(epoch=0, oracle=oracle)
        self._lock = threading.Lock()

    @property
    def current(self) -> EpochSnapshot:
        """The latest published snapshot (single atomic read)."""
        return self._current

    @property
    def epoch(self) -> int:
        """The latest published epoch number."""
        return self._current.epoch

    def publish(self, oracle, affected=None, *, epsilon: float = 0.0) -> EpochSnapshot:
        """Atomically swap in *oracle* as the next epoch's snapshot.

        Returns the new snapshot.  Readers that fetched the previous
        snapshot keep using it unharmed; new readers see the new one.
        *epsilon* is the stretch bound in force for the new snapshot
        (the deferral journal's ε at publish time; 0.0 ⇒ exact).
        """
        with self._lock:
            snapshot = EpochSnapshot(
                epoch=self._current.epoch + 1,
                oracle=oracle,
                affected=None if affected is None else frozenset(affected),
                epsilon=epsilon,
            )
            self._current = snapshot
            return snapshot

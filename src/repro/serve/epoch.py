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

Retired snapshots are never invalidated — a reader holding one keeps
getting exact answers for that epoch indefinitely.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["EpochSnapshot", "EpochManager"]


@dataclass(frozen=True)
class EpochSnapshot:
    """One immutable published version of the served index (DESIGN.md §4b).

    Attributes
    ----------
    epoch:
        Version number; 0 for the initial index, +1 per publish.
    oracle:
        The frozen oracle (graph + index) answering for this epoch.
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

    def publish(self, oracle, *, epsilon: float = 0.0) -> EpochSnapshot:
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
                epsilon=epsilon,
            )
            self._current = snapshot
            return snapshot

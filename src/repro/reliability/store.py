"""Crash-safe oracle storage: atomic snapshots + write-ahead journal.

A :class:`ReliableStore` owns one directory::

    store/
      snapshot.npz   last checkpointed index (atomic write, checksummed)
      wal.jsonl      update batches accepted since that checkpoint

The serving protocol is

1. ``checkpoint(oracle)`` after building (and periodically after);
2. ``log(batch)`` **before** applying each accepted batch in memory;
3. after a crash, ``recover()`` — load the snapshot (integrity checked),
   rebuild the oracle around it without re-indexing, and replay the
   journal through the real maintenance algorithms (DCH± / IncH2H±).

Any of the four facades — CH or H2H, undirected or directed — can be
checkpointed: the snapshot is one :func:`repro.persist.save_index`
archive, which records the index kind and direction count itself, and
:func:`repro.persist.load_oracle` restores the matching facade.
Because maintenance is deterministic, replay reproduces the pre-crash
index entry for entry — the same guarantee the persistence round-trip
tests establish for snapshots alone, extended across crashes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Union

from repro.errors import IntegrityError, RecoveryError, ReproError
from repro.graph.graph import WeightUpdate
from repro.persist import load_oracle, save_index
from repro.reliability.wal import WriteAheadLog

__all__ = ["RecoveryResult", "ReliableStore"]

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RecoveryResult:
    """What :meth:`ReliableStore.recover` reconstructed (DESIGN.md §4a)."""

    oracle: object
    replayed_batches: int


class ReliableStore:
    """Snapshot + WAL persistence for a dynamic oracle (DESIGN.md §4a).

    Example
    -------
    >>> import tempfile
    >>> from repro.core.dynamic import DynamicCH
    >>> from repro.graph.generators import grid_network
    >>> store = ReliableStore(tempfile.mkdtemp())
    >>> oracle = DynamicCH(grid_network(3, 3, seed=1))
    >>> store.checkpoint(oracle)
    >>> batch = [((0, 1), oracle.graph.weight(0, 1) + 1.0)]
    >>> store.log(batch); _ = oracle.apply(batch)
    0
    >>> recovered = store.recover()
    >>> recovered.oracle.graph == oracle.graph
    True
    """

    SNAPSHOT = "snapshot.npz"
    WAL = "wal.jsonl"

    def __init__(self, root: PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.wal = WriteAheadLog(self.wal_path)

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.root, self.SNAPSHOT)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.root, self.WAL)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def checkpoint(self, oracle) -> None:
        """Atomically snapshot *oracle*'s index, then clear the journal.

        Order matters for crash safety: the snapshot is published (via
        ``os.replace``) before the WAL is truncated, so a crash between
        the two merely replays batches the snapshot already contains —
        replaying an already-applied weight assignment is idempotent.
        """
        save_index(oracle.index, self.snapshot_path)
        self.wal.reset()

    def log(self, updates: Sequence[WeightUpdate]) -> int:
        """Journal one accepted batch; returns its sequence number."""
        return self.wal.append(updates)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryResult:
        """Reconstruct the oracle from the last snapshot plus the journal.

        Raises
        ------
        RecoveryError
            If the snapshot is missing/corrupt, the journal is corrupt
            beyond a torn tail, or a journaled batch fails to replay.
        """
        try:
            oracle = load_oracle(self.snapshot_path)
        except IntegrityError as exc:
            raise RecoveryError(
                f"cannot recover from {self.root}: snapshot unusable "
                f"({exc})"
            ) from exc
        records = self.wal.replay()
        for record in records:
            try:
                oracle.apply(record.updates)
            except ReproError as exc:
                raise RecoveryError(
                    f"cannot recover from {self.root}: replay of batch "
                    f"{record.seq} failed ({exc})"
                ) from exc
        return RecoveryResult(oracle=oracle, replayed_batches=len(records))

    def __repr__(self) -> str:
        return f"ReliableStore({self.root!r})"

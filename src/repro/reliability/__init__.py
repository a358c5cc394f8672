"""Reliability layer: the oracle stack hardened for always-on serving.

The paper's deployment story is a long-lived oracle absorbing an endless
stream of weight-update batches without ever rebuilding; this package
supplies everything that story needs to survive contact with real
hardware:

* :mod:`~repro.reliability.transactions` — copy-on-write update
  application (:func:`cow_apply`): each version is built on a private
  clone and published whole or dropped, so readers never see graph and
  index diverge;
* :mod:`~repro.reliability.wal` — a checksummed write-ahead journal of
  accepted batches (:class:`WriteAheadLog`);
* :mod:`~repro.reliability.store` — atomic snapshots + WAL replay
  (:class:`ReliableStore`), recovering the exact pre-crash index;
* :mod:`~repro.reliability.verify` — integrity sweeps
  (:func:`verify_index`) cross-checking every stored weight / support /
  distance entry against the equations that define it;
* :mod:`~repro.reliability.resilient` — :class:`ResilientOracle`,
  which degrades to exact Dijkstra answers and self-heals when the
  index fails;
* :mod:`~repro.reliability.degrade` — the bounded-error rung between
  healthy and fallback (:class:`DeferredMaintenance`,
  :class:`DegradePolicy`, :class:`OracleState`): sub-threshold weight
  changes are parked in a journal and answers carry a tracked
  max-stretch guarantee ``ε`` (``docs/degraded-mode.md``);
* :mod:`~repro.reliability.faults` — a seeded :class:`FaultInjector`
  so every one of those paths is actually exercised in tests.
"""

from repro.reliability.degrade import (
    BoundedDistance,
    DeferredMaintenance,
    DegradePolicy,
    OracleState,
    check_stretch,
)
from repro.reliability.faults import (
    DEFERRAL_LABELS,
    FaultInjector,
    FaultyOracle,
    InjectedFault,
)
from repro.reliability.resilient import ResilientOracle
from repro.reliability.store import RecoveryResult, ReliableStore
from repro.reliability.transactions import cow_apply, validate_batch
from repro.reliability.verify import verify_ch, verify_h2h, verify_index
from repro.reliability.wal import WalRecord, WriteAheadLog

__all__ = [
    "DEFERRAL_LABELS",
    "BoundedDistance",
    "DeferredMaintenance",
    "DegradePolicy",
    "FaultInjector",
    "FaultyOracle",
    "InjectedFault",
    "OracleState",
    "RecoveryResult",
    "ReliableStore",
    "ResilientOracle",
    "WalRecord",
    "WriteAheadLog",
    "check_stretch",
    "cow_apply",
    "validate_batch",
    "verify_ch",
    "verify_h2h",
    "verify_index",
]

"""Machine-independent operation counting.

Relative subboundedness (Section 4 of the paper) is a statement about the
*number of elementary operations* an incremental algorithm performs
compared with ``||AFF|| log ||AFF||``.  Wall-clock time on one machine
cannot verify such a statement; operation counts can.  Every indexing and
maintenance algorithm in this library therefore accepts an optional
:class:`OpCounter` and tallies its elementary steps into named channels
(e.g. ``"scp_minus_inspect"``, ``"queue_push"``).

The counter is deliberately lightweight: a ``dict`` subclass whose
:meth:`add` is a single dict update, so that instrumentation does not
distort the relative costs it is measuring.  Passing ``None`` (the default
everywhere) uses a shared :class:`NullCounter` whose :meth:`add` is a
no-op, making uninstrumented runs essentially free.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

__all__ = ["OpCounter", "NullCounter", "resolve_counter"]


class OpCounter:
    """Named tallies of elementary operations.

    Example
    -------
    >>> ops = OpCounter()
    >>> ops.add("relax")
    >>> ops.add("relax", 3)
    >>> ops["relax"]
    4
    >>> ops.total()
    4
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, channel: str, amount: int = 1) -> None:
        """Add *amount* operations to *channel*."""
        counts = self._counts
        counts[channel] = counts.get(channel, 0) + amount

    def __getitem__(self, channel: str) -> int:
        return self._counts.get(channel, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"OpCounter({body})"

    def total(self) -> int:
        """Total operations across all channels."""
        return sum(self._counts.values())

    def as_dict(self) -> Dict[str, int]:
        """A copy of the raw channel -> count mapping."""
        return dict(self._counts)

    def since(self, before: Dict[str, int]) -> Dict[str, int]:
        """The channels that grew since *before* (an :meth:`as_dict`
        snapshot), mapped to how much: one call's own operations."""
        grown = {}
        for channel, count in self._counts.items():
            delta = count - before.get(channel, 0)
            if delta:
                grown[channel] = delta
        return grown

    def clear(self) -> None:
        """Reset all channels to zero."""
        self._counts.clear()

    def merge(self, other: "OpCounter") -> None:
        """Fold *other*'s tallies into this counter."""
        for channel, amount in other._counts.items():
            self.add(channel, amount)


class NullCounter(OpCounter):
    """An :class:`OpCounter` that ignores everything (null object)."""

    __slots__ = ()

    def add(self, channel: str, amount: int = 1) -> None:  # noqa: D102
        pass


#: Shared do-nothing counter used when callers do not request instrumentation.
NULL_COUNTER = NullCounter()


def resolve_counter(counter: Optional[OpCounter]) -> OpCounter:
    """Return *counter* itself, or the shared null counter for ``None``."""
    return NULL_COUNTER if counter is None else counter

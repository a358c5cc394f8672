"""A bounded query cache with epoch-exact hits and AFF-scoped eviction.

Entries are keyed on the query pair — canonicalized to the unordered
pair when the metric is symmetric, kept ordered for directed oracles
where ``sd(s -> t) != sd(t -> s)`` — and *stamped with the epoch*
they were computed at; :meth:`QueryCache.get` only returns a value whose
stamp matches the reader's epoch, so a reader can never see an answer
computed against a different network version — publishing a new epoch
instantly un-hits every entry the update could have changed, even for
readers racing with the publish.

On publish, :meth:`QueryCache.migrate` walks the cache once and
*re-stamps* every surviving entry instead of flushing: an entry survives
exactly when neither endpoint lies in the update's ``V_aff`` (see
:mod:`repro.serve.aff` for why that is sound).  A small targeted update
therefore keeps almost the whole cache warm — the serving-layer payoff
of the paper's AFF machinery.

Late writers are harmless: a reader still answering on a pre-publish
snapshot may ``put`` an old-epoch value after migration; the entry is
stored under its old stamp (useful to same-epoch readers, invisible to
newer ones) and is refused if it would clobber a newer-epoch entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

__all__ = ["QueryCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss/eviction totals (DESIGN.md §4b)."""

    hits: int = 0
    misses: int = 0
    evicted_aff: int = 0  #: entries dropped by AFF-scoped migration
    evicted_lru: int = 0  #: entries dropped by the capacity bound
    carried: int = 0  #: entries re-stamped across a publish
    flushes: int = 0  #: wholesale flushes (unknown AFF set)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evicted_aff": self.evicted_aff,
            "evicted_lru": self.evicted_lru,
            "carried": self.carried,
            "flushes": self.flushes,
        }


class QueryCache:
    """Bounded LRU of ``(s, t) -> (epoch, distance)`` with epoch-exact gets;
    on publish, :meth:`migrate` evicts only pairs touching the update's AFF
    projection (DESIGN.md §4b, paper Section 4's AFF).

    All operations take the internal lock, so the cache is safe under
    any mix of reader and writer threads.
    """

    def __init__(self, capacity: int = 65536, *, symmetric: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: whether sd(s, t) == sd(t, s); directed oracles must pass False
        #: so (s, t) and (t, s) get distinct entries.
        self.symmetric = symmetric
        self._data: "OrderedDict[Tuple[int, int], Tuple[int, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _key(self, s: int, t: int) -> Tuple[int, int]:
        if self.symmetric:
            return (s, t) if s <= t else (t, s)
        return (s, t)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, epoch: int, s: int, t: int) -> Optional[float]:
        """The cached distance of ``(s, t)`` at exactly *epoch*, or None."""
        key = self._key(s, t)
        with self._lock:
            entry = self._data.get(key)
            if entry is not None and entry[0] == epoch:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return entry[1]
            self.stats.misses += 1
            return None

    def put(self, epoch: int, s: int, t: int, distance: float) -> bool:
        """Store an answer computed at *epoch*; returns False if refused.

        A put is refused when a newer-epoch entry already occupies the
        pair — a late writer from a retired snapshot must never shadow a
        fresher answer.
        """
        key = self._key(s, t)
        with self._lock:
            entry = self._data.get(key)
            if entry is not None and entry[0] > epoch:
                return False
            self._data[key] = (epoch, distance)
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.stats.evicted_lru += 1
            return True

    def peek(self, epoch: int, s: int, t: int) -> Optional[float]:
        """Like :meth:`get` but with no stats / LRU side effects (tests)."""
        entry = self._data.get(self._key(s, t))
        if entry is not None and entry[0] == epoch:
            return entry[1]
        return None

    def migrate(
        self,
        new_epoch: int,
        affected: Optional[Iterable[int]],
    ) -> Tuple[int, int]:
        """Re-stamp survivors to *new_epoch*; drop pairs hit by the update.

        *affected* is the update's ``V_aff`` (a set is read as is, any
        other iterable is collected into one); ``None`` means the AFF set
        is unknown and the whole cache is flushed (always sound).
        Entries stamped with epochs older than the immediately preceding
        one are dropped too — their pairs were already invalidated once.

        Returns ``(carried, evicted)``.
        """
        with self._lock:
            if affected is None:
                evicted = len(self._data)
                self._data.clear()
                self.stats.flushes += 1
                self.stats.evicted_aff += evicted
                return 0, evicted
            aff = affected if isinstance(affected, (set, frozenset)) else set(affected)
            carried = 0
            evicted = 0
            previous = new_epoch - 1
            for key in list(self._data):
                epoch, distance = self._data[key]
                s, t = key
                if epoch >= new_epoch:
                    continue  # already filled by a racing new-epoch reader
                if epoch == previous and s not in aff and t not in aff:
                    self._data[key] = (new_epoch, distance)
                    carried += 1
                else:
                    del self._data[key]
                    evicted += 1
            self.stats.carried += carried
            self.stats.evicted_aff += evicted
            return carried, evicted

    def clear(self) -> None:
        """Drop every entry (counters retained)."""
        with self._lock:
            self._data.clear()

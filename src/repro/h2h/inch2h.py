"""IncH2H — the paper's new incremental H2H algorithms (Section 5).

``inch2h_increase`` is Algorithm 4 (IncH2H+) and ``inch2h_decrease`` is
Algorithm 5 (IncH2H-).  Theorem 5.1 proves IncH2H+ *subbounded relative
to* H2HIndexing (``O(||AFF|| log ||AFF||)``) and IncH2H- additionally
*bounded relative to* H2HIndexing (``O(|DIFF| log |DIFF|)``).

Both algorithms first update the shortcut graph with DCH (line 2) —
IncH2H belongs to the INC_H2H class of Section 3.3, which maintains
``sc(G)`` as a subtask — and then propagate through super-shortcuts.
The dependents of an entry ``(u, a)`` are found without scanning the
whole index: they are exactly the entries ``(v, a)`` for
``v in nbr-(u)`` (lines 15-18) and ``(v, u)`` for
``v in nbr-(a) ∩ des(u)`` (lines 19-22), the latter a contiguous range
of ``nbr-(a)`` located by ``first(<<u, a>>)``.

Level-synchronous schedule
--------------------------
The paper's queue pops entries in non-ascending rank of ``u`` so that
every Equation (*) dependency is final before an entry is consumed.
Section 5.3 (ParIncH2H) observes that non-descending ``depth(u)`` is an
equally valid order: every dependency of ``<<u, a>>`` lives at a
strictly smaller depth, and every dependent at a strictly larger one.
The entries of one depth are therefore mutually independent, and each
level runs here as a few flat numpy operations over the tree's CSRs
(:meth:`repro.h2h.tree.TreeDecomposition._build_csr`) and the index's
slot weights (:meth:`repro.h2h.index.H2HIndex.slot_weights`, a view of
the shortcut store DCH± has just written), in blocks of at most
:data:`LEVEL_CHUNK` entries.

The result is bit-identical to the one-entry-at-a-time queue — the same
``dis``/``sup`` matrices, changed records, op counts and work log —
because each entry still sees final values and every cross-entry effect
is order-free:

* IncH2H+ support decrements commute: they go in as one unbuffered
  ``subtract.at`` per block, and an entry left with no support enters
  the queue exactly when the one-at-a-time run would have pushed it
  (the queue drops repeated keys);
* the IncH2H- relax rule over a fixed candidate multiset is a per-target
  ``min`` with a tie count — improvement resets the support to the
  number of candidates attaining the min, a tie adds it;
* each candidate goes through the same IEEE-754 ``weight + value``
  addition as the scalar loop.

The queue is counted as before: one ``queue_push`` and one ``queue_pop``
per processed entry.  The counts of a call are added to the counter
once, at its end.

As in DCH-, the decrease pass maintains exact ``sup`` values on the fly
(the paper's "without affecting the complexity" note at the end of
Section 5.2): every changed candidate is applied exactly once with final
values.  The seeds of lines 3-12 are relaxed all at once, each reading
the labels as they were before the call; a seed term that reads an
entry the call improves is stale, and the propagation from that entry
supersedes it with the same term at its final, strictly smaller value
(see :func:`_seed_decrease`).

A ``work_log`` hook records ``(depth(u), u, cost)`` per processed entry
for the ParIncH2H scheduling simulation (Section 5.3).

Changed records
---------------
The changed super-shortcuts come back as :class:`ChangedLabels`: the
flat keys of the processed entries, their old and their new values,
concatenated once per call, with nothing built per entry.  Iterating
decodes ``((u, depth_a), old, new)`` tuples on demand.

Write log
---------
Every label cell the engine writes is reported, as an array of flat
keys, to the index's :meth:`~repro.h2h.index.H2HIndex.log_writes`:
the seed hits of IncH2H+, the dependents that lose support in the
IncH2H+ propagation, and the relaxed targets of the IncH2H- seeds and
propagation.  The entries IncH2H+ recomputes (line
23) need no keys of their own: an entry is queued only once a logged
support decrement has brought its support to 0.
A clone keeps those keys so that its own clone can recycle a retired
epoch's matrices by copying just those cells
(:meth:`repro.h2h.index.H2HIndex.clone`).  Keys may repeat; the log
changes no result and no op count.

Direction axis
--------------
The propagation runs over ``D`` label matrices stacked as one
``(D, n, width)`` store, with entries keyed ``(d * n + u) * width + da``
and slot weights ``W`` of shape ``(D, slots)``: the undirected index is
``D = 1`` (its ``dis`` and the shortcut store's weights are matrix 0),
the directed index of :mod:`repro.directed.h2h` ``D = 2`` (``TO``,
``FROM``): one :class:`~repro.h2h.index.H2HIndex` class and one entry
pair, :func:`inch2h_increase` / :func:`inch2h_decrease`, serve both,
reading ``D`` off the CH store.  Only the seed rows of lines 3-12
(:func:`_seed_rows`) and the trace depend on it: a changed shortcut
or arc seeds label row ``(d, low)`` of its lower-ranked end ``low``,
with ``d = 0`` when the changed key starts at ``low`` and ``D - 1``
otherwise; the calls open ``inch2h.*`` on ``D = 1`` and
``directed.inch2h.*`` (with the same ``inch2h.*.seed`` /
``.propagate`` phase spans, and op counts without Section 5's
currencies) on ``D = 2``.  With
``other = [0]`` undirected and ``[1, 0]`` directed, entry ``(d, u, da)``

* takes its line-23 terms from ``W[d]``, reading the deep Equation
  (nabla) case from matrix ``other[d]``;
* feeds loop 1 (lines 15-18) in matrix ``d`` through ``W[d]``;
* feeds loop 2 (lines 19-22) in matrix ``other[d]`` through
  ``W[other[d]]``.

Section 5.3's depth argument holds per direction: every directed
dependency of ``(d, u, a)`` is an ancestor row of ``u`` and every
dependent a descendant row, so one depth of one matrix is a level.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase, trace_call
from repro.graph.graph import WeightUpdate
from repro.h2h.index import H2HIndex
from repro.obs import names
from repro.obs.trace import span
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = [
    "inch2h_increase",
    "inch2h_decrease",
    "ChangedLabels",
    "ChangedSuperShortcut",
]

#: A changed super-shortcut: ((descendant u, depth of ancestor a), old, new).
ChangedSuperShortcut = Tuple[Tuple[int, int], float, float]

#: Most entries of one level processed in one numpy block.  Blocks of a
#: level are independent (their writes land on deeper levels or on their
#: own entries), so the split bounds temporary memory without changing
#: any result.
LEVEL_CHUNK = 2048

_INF = math.inf
_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)


class ChangedLabels:
    """The super-shortcuts one IncH2H± call changed (AFF_3), as arrays.

    ``keys`` are flat indices ``(d * n + u) * width + da`` into the
    ``(count, n, width)`` label store, ``old`` and ``new`` the values
    before and after, in ascending ``depth(u)``, then matrix ``d``, ``u``
    and ``da``.  Nothing per entry is built until asked for: iterating
    decodes ``((u, da), old, new)`` tuples for one label matrix and
    ``((d, u, da), old, new)`` for several, in that order, and ``len`` is
    ``|AFF_3|``.  ``a + b`` lists *a*'s entries, then *b*'s (a mixed
    batch: its increase half, then its decrease half).
    """

    __slots__ = ("keys", "old", "new", "n", "width", "count")

    def __init__(
        self,
        keys: np.ndarray = _NO_KEYS,
        old: np.ndarray = _NO_VALUES,
        new: np.ndarray = _NO_VALUES,
        n: int = 0,
        width: int = 0,
        count: int = 1,
    ) -> None:
        self.keys, self.old, self.new = keys, old, new
        self.n, self.width, self.count = n, width, count

    def __len__(self) -> int:
        return len(self.keys)

    def decode(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(d, u, da)`` of every entry, as int64 arrays."""
        if not len(self.keys):
            return _NO_KEYS, _NO_KEYS, _NO_KEYS
        row, da = np.divmod(self.keys, self.width)
        d, u = np.divmod(row, self.n)
        return d, u, da

    def __iter__(self) -> Iterator[tuple]:
        d, u, da = self.decode()
        if self.count == 1:
            keys = zip(u.tolist(), da.tolist())
        else:
            keys = zip(d.tolist(), u.tolist(), da.tolist())
        return zip(keys, self.old.tolist(), self.new.tolist())

    def _shape(self) -> Tuple[int, int, int]:
        return self.n, self.width, self.count

    def __add__(self, other: "ChangedLabels") -> "ChangedLabels":
        if not isinstance(other, ChangedLabels):
            return NotImplemented
        if not len(other):
            return self
        if not len(self):
            return other
        if self._shape() != other._shape():
            raise ValueError("changed labels of differently shaped stores")
        return ChangedLabels(
            np.concatenate((self.keys, other.keys)),
            np.concatenate((self.old, other.old)),
            np.concatenate((self.new, other.new)),
            *self._shape(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChangedLabels):
            return NotImplemented
        return (
            len(self) == len(other)
            and (not len(self) or self._shape() == other._shape())
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.old, other.old)
            and np.array_equal(self.new, other.new)
        )

    __hash__ = None  # mutable arrays

    def __repr__(self) -> str:
        return f"ChangedLabels({len(self)} entries)"


def _changed(levels: "_Levels", keys: np.ndarray, old: np.ndarray) -> ChangedLabels:
    """The entries among the processed *keys* whose value moved from
    *old*.  A processed entry is never written again in its call (every
    later write lands on a deeper level), so its value now is final."""
    new = levels.dis.take(keys)
    moved = (new != old).nonzero()[0]
    return ChangedLabels(
        keys[moved], old[moved], new[moved], levels.n, levels.width, levels.count
    )


def _cat(parts: list, empty: np.ndarray) -> np.ndarray:
    return np.concatenate(parts) if parts else empty


def _trace_call(sp, index, delta, changed_shortcuts, changed, ops, ops_before) -> None:
    """Attach the per-call op counts to *sp*, and on ``D = 1`` Section
    5's currencies (the directed call carries its counts only).

    Only runs when a sink is attached; reads the index without mutating
    it (the differential test asserts bit-identical state).
    """
    if len(index.sc.slot_weights) == 2:
        trace_call(sp, delta, len(changed), ops, ops_before)
        return
    from repro.core.changed import h2h_change_metrics  # circular at module level

    metrics = h2h_change_metrics(index, delta, changed_shortcuts, changed)
    call_ops = ops.since(ops_before)
    sp.set(
        delta=delta,
        changed_shortcuts=len(changed_shortcuts),
        changed=len(changed),
        aff_norm=metrics.aff_norm,
        diff=metrics.diff,
        ops=call_ops,
        ops_total=sum(call_ops.values()),
    )


class _Levels:
    """The queue of pending super-shortcuts, bucketed by tree depth and
    label matrix, and the flat views of the label store the level engine
    writes through.

    Entries are flat indices ``(d * n + u) * width + da`` into the
    ``(D, n, width)`` label store (``D = 1`` for the undirected ``dis``).
    Bucket ``depth(u) * D + d`` holds one depth of one matrix, and
    buckets pop in ascending order, so depths ascend.  A push is sorted
    by bucket once and filed as one slice per bucket; a pop merges its
    bucket's slices and drops repeated keys.  In the decrease direction
    each push carries the entry's value before that improvement; values
    only fall, so the largest is the original.
    """

    def __init__(self, index) -> None:
        tree = index.tree
        self.n = tree.n
        self.width = index.dis.shape[-1]
        self.count = index.dis.size // (self.n * self.width)
        # The bucket of every label row d * n + u.
        self.bucket = (
            tree.depth * self.count + np.arange(self.count)[:, None]
        ).ravel()
        # The slices filed under each bucket, None where there are none
        # (the label width is the tree's height, so width * count bounds
        # the buckets); pops scan upward from ``cursor``, below which
        # nothing is left.
        self.pending: List[Optional[list]] = [None] * (self.width * self.count)
        self.cursor = 0
        self.filed = 0  # buckets holding slices
        #: Entries popped so far: each is one queue push and one pop.
        self.popped = 0
        #: Flat views of the label store, for ``put``/``take`` and the
        #: unbuffered ``ufunc.at`` updates.
        self.dis = np.reshape(index.dis, -1, copy=False)
        self.sup = np.reshape(index.sup, -1, copy=False)

    def push(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Queue *keys* (repeats allowed), each in a bucket not popped
        yet."""
        if not len(keys):
            return
        buckets = self.bucket[keys // self.width]
        order = buckets.argsort()
        buckets, keys = buckets[order], keys[order]
        if values is not None:
            values = values[order]
        starts = _run_starts(buckets)
        bounds = starts.tolist() + [len(keys)]
        pending = self.pending
        for bucket, lo, hi in zip(buckets[starts].tolist(), bounds, bounds[1:]):
            part = (keys[lo:hi], None if values is None else values[lo:hi])
            parts = pending[bucket]
            if parts is None:
                pending[bucket] = [part]
                self.filed += 1
            else:
                parts.append(part)

    def __iter__(
        self,
    ) -> Iterator[Tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
        """Pop buckets in ascending order: ``(depth, matrix, distinct
        sorted keys, their original values or None)``.  A bucket is popped
        only once every shallower depth is done, so nothing can join it
        later."""
        pending = self.pending
        while self.filed:
            bucket = self.cursor
            while pending[bucket] is None:
                bucket += 1
            keys, values = _merge(pending[bucket])
            pending[bucket] = None
            self.filed -= 1
            self.cursor = bucket + 1
            level, d = divmod(bucket, self.count)
            if values is None:
                keys = np.sort(keys)
                keys = keys[_run_starts(keys)]
            else:
                order = keys.argsort()
                keys = keys[order]
                first = _run_starts(keys)
                keys, values = keys[first], np.maximum.reduceat(values[order], first)
            self.popped += len(keys)
            yield level, d, keys, values


def _merge(parts: list) -> tuple:
    """One ``(keys, values)`` pair from a list of them."""
    if len(parts) == 1:
        return parts[0]
    keys, values = zip(*parts)
    return (
        np.concatenate(keys),
        None if values[0] is None else np.concatenate(values),
    )


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted, non-empty array."""
    change = np.empty(len(ordered), dtype=bool)
    change[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    return change.nonzero()[0]


def _blocks(keys: np.ndarray, levels: _Levels, tree, d: int):
    """Split one bucket's entries, all of matrix *d*, into ``(keys, u,
    da, a)`` blocks of at most :data:`LEVEL_CHUNK`: ``a`` is each
    entry's ancestor, gathered once for the dependents and Equation
    (*)."""
    width = levels.width
    for lo in range(0, len(keys), LEVEL_CHUNK):
        block = keys[lo : lo + LEVEL_CHUNK]
        row = block // width
        da = block - row * width
        u = row - d * levels.n if d else row
        yield block, u, da, tree.anc_flat[tree.anc_ptr[u] + da]


def _dependents(tree, levels, d, u, da, a, level, weights, finite):
    """Lines 15-22 for one block of matrix *d*, entries ``(d, u[i],
    da[i])`` with ancestors ``a[i]``: every dependent of the entries
    whose value is *finite* (an infinite one supports and relaxes
    nothing).  Loop 1 feeds entries ``(v, a)`` of matrix *d* through
    ``weights[d]``; loop 2 feeds entries ``(v, u)`` of matrix
    ``other(d)`` through ``weights[other(d)]``.

    Returns ``(entry, leg, target)``: the block position of each
    dependent's source entry, the weight of the shortcut that joins
    them, and the flat index of the dependent entry.
    """
    ids = None
    if np.count_nonzero(finite) < len(finite):
        ids = finite.nonzero()[0]
        u, da, a = u[ids], da[ids], a[ids]
    m = len(u)
    if not m:
        return _NO_KEYS, _NO_VALUES, _NO_KEYS
    lo, hi = tree.descendant_ranges(a, u)
    # CSR rows 0 .. m-1 list nbr-(u[i]) (loop 1), rows m .. 2m-1 the
    # range of nbr-(a[i]) inside des(u[i]) (loop 2).
    counts = np.concatenate((tree.down_len[u], hi - lo))
    ends = counts.cumsum()
    loop1 = int(ends[m - 1])
    entry = np.arange(2 * m).repeat(counts)
    slot = np.concatenate((tree.down_ptr[u], lo)) - ends + counts
    slot = slot[entry]
    slot += np.arange(len(slot))
    entry[loop1:] -= m
    other = kernels.other(levels.count, d)
    plane = levels.n * levels.width  # one label matrix
    target = tree.down_base[slot]
    column = da[entry[:loop1]]
    target[:loop1] += column + d * plane if d else column
    target[loop1:] += level + other * plane
    slot = tree.down_slot[slot]  # the weights are in shortcut-store order
    leg = weights[d][slot]
    if other != d:
        leg[loop1:] = weights[other][slot[loop1:]]
    if ids is not None:
        entry = ids[entry]
    return entry, leg, target


def _count(ops, levels: _Levels, inspected: int, star_terms: int = 0) -> None:
    """Add one call's counts: one ``queue_push`` and one ``queue_pop``
    per processed entry, the ``dependent_inspect`` total and (IncH2H+)
    the line-23 ``star_term`` total."""
    if levels.popped:
        ops.add("queue_push", levels.popped)
        ops.add("queue_pop", levels.popped)
        ops.add("dependent_inspect", inspected)
        if star_terms:
            ops.add("star_term", star_terms)


def _log_work(work_log, level, u, cost) -> None:
    work_log.extend(zip([level] * len(u), u.tolist(), cost.tolist()))


def _seed_rows(index, changed, ops, increase: bool) -> Iterator[tuple]:
    """The label row each changed shortcut or arc feeds (lines 3-12), as
    ``(d, low, high, old, new)``: ``low`` is the lower-ranked end and
    ``d = 0`` when the changed key starts at ``low``, else ``D - 1``.  On
    ``D = 2`` an arc ``low -> high`` feeds the ``TO`` row of ``low``
    (candidates ``phi(low -> high) + sd(high -> a)``) and an arc
    ``high -> low`` its ``FROM`` row (``sd(a -> high) + phi(high ->
    low)``); on ``D = 1`` the one row.  A root row feeds nothing.

    Counts one ``anc_scan`` per ancestor of ``low``.  ``D = 1`` counts
    every changed shortcut; ``D = 2`` skips an arc whose old weight was
    inf (increase) and a root row (decrease).
    """
    rank = index.sc.ordering.rank
    depth = index.tree.depth
    last = len(index.sc.slot_weights) - 1
    for (a, b), old_w, new_w in changed:
        low, high = (a, b) if rank[a] < rank[b] else (b, a)
        du = int(depth[low])
        # Not a mere guard: an add of 0 still puts the key in the dict.
        if not last or (not math.isinf(old_w) if increase else du):
            ops.add("anc_scan", du)
        if du:
            yield (0 if a == low else last), low, high, old_w, new_w


def _columns(rows: list) -> tuple:
    """Seed rows ``(d, u, v, old, new)`` as five arrays."""
    return tuple(np.array(column) for column in zip(*rows))


def _candidates(index, levels, d, u, v, weight):
    """The flat key of every super-shortcut of label rows ``(d[i],
    u[i])`` and its Equation (*) candidate through upward neighbor
    ``v[i]`` at ``weight[i]``."""
    row, da, values = kernels.candidate_rows(index, d, u, v, weight)
    return ((d * levels.n + u) * levels.width)[row] + da, values


def _seed_increase(index, levels, rows) -> None:
    """Lines 3-12 of Algorithm 4.  Each of *rows*, ``(d, u, v, old,
    new)``, is a shortcut joining label row ``(d, u)`` through upward
    neighbor ``v``: every super-shortcut of the row that its candidate
    attained at the *original* weight loses one support, and one left
    with none is queued.  All rows' candidates come from one vectorized
    Equation (*) gather (supports only fall, so no row sees another's
    effect); the callers count ``anc_scan``."""
    rows = [row for row in rows if not math.isinf(row[3])]
    if not rows:
        return
    d, u, v, old_w, _new_w = _columns(rows)
    keys, tmp = _candidates(index, levels, d, u, v, old_w)
    hits = keys[(tmp == levels.dis.take(keys)) & (tmp != _INF)]
    index.log_writes(hits)
    np.subtract.at(levels.sup, hits, 1)
    levels.push(hits[levels.sup.take(hits) <= 0])


def inch2h_increase(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> ChangedLabels:
    """IncH2H+ (Algorithm 4): apply weight *increases* to the H2H index.

    Parameters
    ----------
    index:
        The H2H index (including its shortcut graph), undirected or
        directed; mutated in place.
    updates:
        ``((u, v), new_weight)`` pairs — the arc ``u -> v`` on a
        directed index — each >= the current weight.
    counter:
        Optional instrumentation; the IncH2H channels are ``anc_scan``
        (lines 3-12), ``queue_push``/``queue_pop``, ``dependent_inspect``
        (lines 15-22) and ``star_term`` (line 23), besides DCH's.
    work_log:
        Optional list; receives ``(depth(u), u, cost)`` per processed
        super-shortcut for the ParIncH2H simulation.

    Returns
    -------
    ChangedLabels
        The super-shortcuts whose distance value changed (AFF_3), as
        arrays of flat keys, old and new values; iterating yields
        ``((u, depth_a), old_value, new_value)`` in ascending
        ``depth(u)``, then ``u``, then ``depth_a`` — and
        ``((d, u, depth_a), old, new)`` in ascending ``depth(u)``, then
        ``d``, ``u`` and ``depth_a`` on a directed index.
    """
    directed = len(index.sc.slot_weights) == 2
    with span(
        names.SPAN_DIRECTED_INCH2H_INCREASE if directed else names.SPAN_INCH2H_INCREASE
    ) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        # Line 2: update sc(G); C = shortcuts changed, with original weights.
        changed_shortcuts = dch_increase(index.sc, updates, counter)
        levels = _Levels(index)

        with span(names.SPAN_INCH2H_INCREASE_SEED, delta=len(updates)):
            _seed_increase(
                index, levels, _seed_rows(index, changed_shortcuts, ops, True)
            )

        with span(names.SPAN_INCH2H_INCREASE_PROPAGATE) as sp_prop:
            changed = _increase_propagate(index, levels, ops, work_log)
            sp_prop.set(changed=len(changed))
        if sp.active:
            _trace_call(
                sp, index, len(updates), changed_shortcuts, changed, ops, ops_before
            )
    return changed


def _increase_propagate(index, levels, ops, work_log) -> ChangedLabels:
    """Lines 13-23 of Algorithm 4, one depth level of one label matrix
    at a time."""
    tree = index.tree
    dis, sup = index.dis, levels.sup
    weights = index.slot_weights()
    done: list = []
    olds: list = []
    inspected = 0
    for level, d, keys, _ in levels:
        for block, u, da, a in _blocks(keys, levels, tree, d):
            old = dis.take(block)
            entry, leg, target = _dependents(
                tree, levels, d, u, da, a, level, weights, old != _INF
            )
            inspected += len(leg)
            # Lines 15-22: a dependent loses one support per source whose
            # old value attained it (infinite legs support nothing).  One
            # left with none is queued: a finite entry off the diagonal
            # has support >= 1 until its call brings it to 0, so one at 0
            # or below was queued then or is now, and the queue drops
            # the repeats.
            candidate = leg + old[entry]
            hit = target[(candidate == dis.take(target)) & (candidate != _INF)]
            np.subtract.at(sup, hit, 1)
            index.log_writes(hit)
            levels.push(hit[sup.take(hit) <= 0])
            # Line 23: recompute from Equation (*).  The block needs no
            # log entry: each of its keys was queued by a logged support
            # decrement (a seed hit or a hit above).
            new, support = kernels.star_eval(index, d, u, da, anc=a)
            dis.put(block, new)
            sup.put(block, support)
            done.append(block)
            olds.append(old)
            if work_log is not None:
                inspected_by = np.bincount(entry, minlength=len(block))
                _log_work(work_log, level, u, tree.up_len[u] + inspected_by)
    keys = _cat(done, _NO_KEYS)
    # Line 23 inspects nbr+(u) once per processed entry.
    terms = tree.up_len[keys // levels.width % levels.n].sum()
    _count(ops, levels, inspected, int(terms))
    return _changed(levels, keys, _cat(olds, _NO_VALUES))


def inch2h_decrease(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> ChangedLabels:
    """IncH2H- (Algorithm 5): apply weight *decreases* to the H2H index,
    undirected or directed.

    Mirrors :func:`inch2h_increase`; relaxes instead of recomputing and
    keeps every support counter exact on the fly.  Its IncH2H channels
    are ``anc_scan``, ``queue_push``/``queue_pop`` and
    ``dependent_inspect``.

    Returns
    -------
    ChangedLabels
        The super-shortcuts whose distance value changed (AFF_3), as
        :func:`inch2h_increase` returns them.
    """
    directed = len(index.sc.slot_weights) == 2
    with span(
        names.SPAN_DIRECTED_INCH2H_DECREASE if directed else names.SPAN_INCH2H_DECREASE
    ) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        # Line 2: update sc(G); C = shortcuts changed, with final weights.
        changed_shortcuts = dch_decrease(index.sc, updates, counter)
        levels = _Levels(index)
        with span(names.SPAN_INCH2H_DECREASE_SEED, delta=len(updates)):
            _seed_decrease(
                index, levels, _seed_rows(index, changed_shortcuts, ops, False)
            )
        with span(names.SPAN_INCH2H_DECREASE_PROPAGATE):
            changed = _decrease_propagate(index, levels, ops, work_log)
        if sp.active:
            _trace_call(
                sp, index, len(updates), changed_shortcuts, changed, ops, ops_before
            )
    return changed


def _seed_decrease(index, levels, rows) -> None:
    """Lines 3-12 of Algorithm 5: relax each of *rows* (as in
    :func:`_seed_increase`) at the shortcut's new weight, all rows at
    once.  Supports are maintained exactly on the fly: every seed
    candidate strictly decreased (its shortcut changed), so a tie means
    one new supporting term and an improvement resets the support to
    the candidates attaining the new value (:func:`_relax`, which is
    what relaxing the rows one after another leaves).

    Every candidate reads the labels as they were before the seeds.  One
    that reads an entry another seed improves is stale, and harmless:
    the propagation from that entry delivers the same term at its final,
    strictly smaller value, which improves the target again and resets
    any stale tie.  So no term is applied twice at its final value.
    """
    rows = list(rows)
    if rows:
        d, u, v, _old_w, new_w = _columns(rows)
        keys, tmp = _candidates(index, levels, d, u, v, new_w)
        act = (tmp <= levels.dis.take(keys)) & (tmp != _INF)
        _relax(index, levels, keys[act], tmp[act])


def _decrease_propagate(index, levels, ops, work_log) -> ChangedLabels:
    """Lines 13-22 of Algorithm 5, one depth level of one label matrix at
    a time.

    A level's entries are final (every source is shallower), so each
    dependent candidate is applied exactly once with final values:
    improvements reset the dependent's support, ties add to it.
    """
    tree = index.tree
    dis = index.dis
    weights = index.slot_weights()
    done: list = []
    originals: list = []
    inspected = 0
    for level, d, keys, original in levels:
        for block, u, da, a in _blocks(keys, levels, tree, d):
            value = dis.take(block)
            entry, leg, target = _dependents(
                tree, levels, d, u, da, a, level, weights, value != _INF
            )
            inspected += len(leg)
            if work_log is not None:
                _log_work(
                    work_log, level, u, np.bincount(entry, minlength=len(block))
                )
            candidate = leg + value[entry]
            # Only finite candidates at or below the live value can act.
            live = (candidate <= dis.take(target)) & (candidate != _INF)
            _relax(index, levels, target[live], candidate[live])
        done.append(keys)
        originals.append(original)
    _count(ops, levels, inspected)
    return _changed(levels, _cat(done, _NO_KEYS), _cat(originals, _NO_VALUES))


def _relax(index, levels, target, candidate) -> None:
    """Apply finite candidates ``<= dis`` to their targets (which may
    repeat): per target, the min and how many candidates attain it; a
    min below the current value replaces it with that count as support,
    an equal min adds the count."""
    if not len(target):
        return
    dis, sup = levels.dis, levels.sup
    index.log_writes(target)
    current = dis.take(target)
    np.minimum.at(dis, target, candidate)
    best = dis.take(target)
    improved = best < current
    sup.put(target[improved], 0)
    np.add.at(sup, target[candidate == best], 1)
    levels.push(target[improved], current[improved])

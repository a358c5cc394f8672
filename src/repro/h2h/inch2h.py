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
``dis``/``sup`` matrices, changed multiset, op counts and work log —
because each entry still sees final values and every cross-entry effect
is order-free:

* IncH2H+ support decrements commute; an entry whose count reaches 0
  (after a ``unique``/count over the level's hits) enters the queue
  exactly when the one-at-a-time run would have pushed it;
* the IncH2H- relax rule over a fixed candidate multiset is a per-target
  ``min`` with a tie count — improvement resets the support to the
  number of candidates attaining the min, a tie adds it;
* each candidate goes through the same IEEE-754 ``weight + value``
  addition as the scalar loop.

The queue is counted as before: one ``queue_push`` and one ``queue_pop``
per processed entry.

As in DCH-, the decrease pass maintains exact ``sup`` values on the fly
(the paper's "without affecting the complexity" note at the end of
Section 5.2): every changed candidate is applied exactly once with final
values, and a per-seed memo (``seed_rows``) prevents the one case where
a seed evaluation and a dependent relaxation would apply the same
candidate twice.

A ``work_log`` hook records ``(depth(u), u, cost)`` per processed entry
for the ParIncH2H scheduling simulation (Section 5.3).

Write log
---------
Every label cell the engine writes is reported, as an array of flat
keys, to the index's :meth:`~repro.h2h.index.LabelBuffers.log_writes`:
the seed hits of IncH2H+, the ties and improvements of the IncH2H-
seeds, the dependents that lose support in the IncH2H+ propagation, and
the relaxed targets of IncH2H-.  The entries IncH2H+ recomputes (line
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
``FROM``).  With
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
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ch.dch import dch_decrease, dch_increase
from repro.graph.graph import WeightUpdate
from repro.h2h.index import H2HIndex
from repro.obs import names
from repro.obs.trace import span
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["inch2h_increase", "inch2h_decrease", "ChangedSuperShortcut"]

#: A changed super-shortcut: ((descendant u, depth of ancestor a), old, new).
ChangedSuperShortcut = Tuple[Tuple[int, int], float, float]

#: Most entries of one level processed in one numpy block.  Blocks of a
#: level are independent (their writes land on deeper levels or on their
#: own entries), so the split bounds temporary memory without changing
#: any result.
LEVEL_CHUNK = 2048

_INF = math.inf


def _trace_h2h_boundedness(
    sp, index, delta, changed_shortcuts, changed, ops, ops_before
) -> None:
    """Attach Section 5's currencies and per-call op counts to *sp*.

    Only runs when a sink is attached; reads the index without mutating
    it (the differential test asserts bit-identical state).
    """
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
    label matrix.

    Entries are flat indices ``(d * n + u) * width + da`` into the
    ``(D, n, width)`` label store (``D = 1`` for the undirected ``dis``).
    Bucket ``depth(u) * D + d`` holds one depth of one matrix, and
    buckets pop in ascending order, so depths ascend.  In the decrease
    direction each push carries the entry's value before that
    improvement; values only fall, so the largest is the original.
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
        self.keys: Dict[int, List[np.ndarray]] = {}
        self.values: Dict[int, List[np.ndarray]] = {}

    def push(self, keys: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        if not len(keys):
            return
        buckets = self.bucket[keys // self.width]
        order = buckets.argsort()
        buckets = buckets[order]
        starts = _run_starts(buckets)
        bounds = starts.tolist() + [len(keys)]
        for bucket, lo, hi in zip(buckets[starts].tolist(), bounds, bounds[1:]):
            part = order[lo:hi]
            self.keys.setdefault(bucket, []).append(keys[part])
            if values is not None:
                self.values.setdefault(bucket, []).append(values[part])

    def __iter__(
        self,
    ) -> Iterator[Tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
        """Pop buckets in ascending order: ``(depth, matrix, distinct
        sorted keys, their original values or None)``.  A bucket is popped
        only once every shallower depth is done, so nothing can join it
        later."""
        while self.keys:
            bucket = min(self.keys)
            level, d = divmod(bucket, self.count)
            keys = np.concatenate(self.keys.pop(bucket))
            if bucket not in self.values:
                keys.sort()
                yield level, d, keys[_run_starts(keys)], None
                continue
            values = np.concatenate(self.values.pop(bucket))
            order = keys.argsort()
            keys = keys[order]
            first = _run_starts(keys)
            yield level, d, keys[first], np.maximum.reduceat(values[order], first)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted, non-empty array."""
    change = np.empty(len(ordered), dtype=bool)
    change[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    return change.nonzero()[0]


def _tally(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct *keys*, sorted, and how often each occurs."""
    if not len(keys):
        return keys, keys
    keys = np.sort(keys)
    first = _run_starts(keys)
    return keys[first], _run_lengths(first, len(keys))


def _run_lengths(first: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the runs starting at *first* in an array of *total*."""
    lengths = np.empty_like(first)
    lengths[:-1] = first[1:] - first[:-1]
    lengths[-1] = total - first[-1]
    return lengths


def _blocks(keys: np.ndarray, levels: _Levels, d: int):
    """Split one bucket's entries, all of matrix *d*, into ``(keys, u,
    da)`` blocks."""
    width = levels.width
    for lo in range(0, len(keys), LEVEL_CHUNK):
        block = keys[lo : lo + LEVEL_CHUNK]
        u = block // width
        if d:  # row d * n + u of the store
            u -= d * levels.n
        yield block, u, block % width


def _dependents(tree, levels, d, u, da, level, active, weights, with_via=False):
    """Lines 15-22 for one block of matrix *d*: every dependent of the
    active (finite) entries.  Loop 1 feeds entries ``(v, a)`` of matrix
    *d* through ``weights[d]``; loop 2 feeds entries ``(v, u)`` of matrix
    ``other(d)`` through ``weights[other(d)]``.

    Returns ``(entry, leg, target, via)``: the block position of the
    source entry, the weight of the shortcut that joins it, the flat
    index of the dependent entry, and (*with_via*, else None) the
    seed-memo partner: ``u`` for ``(v, a)`` targets, ``a`` for ``(v, u)``
    targets.
    """
    ids = active.nonzero()[0]
    if len(ids) < len(u):
        u, da = u[ids], da[ids]
    down_start = tree.down_ptr[u]
    down_count = tree.down_ptr[u + 1] - down_start
    a = tree.anc_flat[tree.anc_ptr[u] + da].astype(np.int64)
    lo, hi = tree.descendant_ranges(a, u)
    row, slot = kernels.csr_slots(
        np.concatenate((down_start, lo)), np.concatenate((down_count, hi - lo))
    )
    other = kernels.other(levels.count, d)
    plane = levels.n * levels.width  # one label matrix
    column = np.concatenate(
        (
            da + d * plane if d else da,
            np.full(len(ids), level + other * plane, dtype=np.int64),
        )
    )
    target = tree.down_idx[slot].astype(np.int64) * levels.width + column[row]
    slot = tree.down_slot[slot]  # the weights are in shortcut-store order
    leg = weights[d][slot]
    if other != d:
        loop2 = int(down_count.sum())
        leg[loop2:] = weights[other][slot[loop2:]]
    entry = np.concatenate((ids, ids))[row]
    via = np.concatenate((u, a))[row] if with_via else None
    return entry, leg, target, via


def _record(changed: list, levels: _Levels, d, u, da, old, new) -> None:
    """Append ``(key, old, new)`` records for entries ``(d, u[i], da[i])``
    to *changed*, with ``key`` = ``(u, da)`` for one label matrix and
    ``(d, u, da)`` for several."""
    if levels.count == 1:
        keys = zip(u.tolist(), da.tolist())
    else:
        keys = zip(repeat(d), u.tolist(), da.tolist())
    changed.extend(zip(keys, old.tolist(), new.tolist()))


def _log_work(work_log, level, u, cost) -> None:
    work_log.extend(zip([level] * len(u), u.tolist(), cost.tolist()))


def _shortcut_rows(index, changed_shortcuts, ops) -> Iterator[tuple]:
    """The label row each changed shortcut ``<u, v>`` feeds, as
    ``(0, u, v, old, new)`` with ``u`` the lower end.  Counts one
    ``anc_scan`` per ancestor of ``u``; a root row feeds nothing."""
    rank = index.sc.ordering.rank
    depth = index.tree.depth
    for (a_end, b_end), old_w, new_w in changed_shortcuts:
        u, v = (a_end, b_end) if rank[a_end] < rank[b_end] else (b_end, a_end)
        du = int(depth[u])
        ops.add("anc_scan", du)
        if du:
            yield 0, u, v, old_w, new_w


def _seed_increase(index, levels, rows) -> None:
    """Lines 3-12 of Algorithm 4.  Each of *rows*, ``(d, u, v, old,
    new)``, is a shortcut joining label row ``(d, u)`` through upward
    neighbor ``v``: every super-shortcut of the row that its candidate
    attained at the *original* weight loses one support, and one that
    reaches 0 is queued.  The row's candidates come from the vectorized
    Equation (*) kernel; the callers count ``anc_scan``."""
    dis = index.dis.reshape(levels.count, levels.n, levels.width)
    sup = index.sup.reshape(dis.shape)
    seeds = []
    for d, u, v, old_w, _new_w in rows:
        if math.isinf(old_w):
            continue
        tmp = kernels.candidate_row(index, d, u, v, old_w)
        hits = np.nonzero((tmp == dis[d, u, : len(tmp)]) & ~np.isinf(tmp))[0]
        row_sup = sup[d, u]
        first = (d * levels.n + u) * levels.width
        index.log_writes(first + hits)
        for da in hits.tolist():
            row_sup[da] -= 1
            if row_sup[da] == 0:
                seeds.append(first + da)
    levels.push(np.array(seeds, dtype=np.int64))


def inch2h_increase(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> List[ChangedSuperShortcut]:
    """IncH2H+ (Algorithm 4): apply weight *increases* to the H2H index.

    Parameters
    ----------
    index:
        The H2H index (including its shortcut graph); mutated in place.
    updates:
        ``((u, v), new_weight)`` pairs, each >= the current weight.
    counter:
        Optional instrumentation; the IncH2H channels are ``anc_scan``
        (lines 3-12), ``queue_push``/``queue_pop``, ``dependent_inspect``
        (lines 15-22) and ``star_term`` (line 23), besides DCH's.
    work_log:
        Optional list; receives ``(depth(u), u, cost)`` per processed
        super-shortcut for the ParIncH2H simulation.

    Returns
    -------
    list of ((u, depth_a), old_value, new_value)
        The super-shortcuts whose distance value changed (AFF_3), in
        ascending ``depth(u)``, then ``u``, then ``depth_a``.
    """
    with span(names.SPAN_INCH2H_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        # Line 2: update sc(G); C = shortcuts changed, with original weights.
        changed_shortcuts = dch_increase(index.sc, updates, counter)
        levels = _Levels(index)

        with span(names.SPAN_INCH2H_INCREASE_SEED, delta=len(updates)):
            _seed_increase(index, levels, _shortcut_rows(index, changed_shortcuts, ops))

        with span(names.SPAN_INCH2H_INCREASE_PROPAGATE) as sp_prop:
            changed = _increase_propagate(index, levels, ops, work_log)
            sp_prop.set(changed=len(changed))
        if sp.active:
            _trace_h2h_boundedness(
                sp, index, len(updates), changed_shortcuts, changed, ops, ops_before
            )
    return changed


def _increase_propagate(index, levels, ops, work_log) -> list:
    """Lines 13-23 of Algorithm 4, one depth level of one label matrix
    at a time."""
    tree = index.tree
    dis, sup = index.dis, index.sup
    weights = index.slot_weights()
    changed: list = []
    for level, d, keys, _ in levels:
        ops.add("queue_push", len(keys))
        ops.add("queue_pop", len(keys))
        for block, u, da in _blocks(keys, levels, d):
            old = dis.take(block)
            entry, leg, target, _via = _dependents(
                tree, levels, d, u, da, level, old != _INF, weights
            )
            ops.add("dependent_inspect", len(leg))
            # Lines 15-22: a dependent loses one support per source whose
            # old value attained it (infinite legs support nothing).
            candidate = leg + old[entry]
            hit = (candidate == dis.take(target)) & (candidate != _INF)
            hit_keys, losses = _tally(target[hit])
            before = sup.take(hit_keys)
            after = before - losses
            index.log_writes(hit_keys)
            sup.put(hit_keys, after)
            levels.push(hit_keys[(before > 0) & (after <= 0)])
            # Line 23: recompute from Equation (*).  The block needs no
            # log entry: each of its keys was queued by a logged support
            # decrement (a seed hit or a hit key above).
            new, support = kernels.star_eval(index, d, u, da, ops)
            dis.put(block, new)
            sup.put(block, support)
            moved = (new != old).nonzero()[0]
            _record(changed, levels, d, u[moved], da[moved], old[moved], new[moved])
            if work_log is not None:
                up_count = tree.up_ptr[u + 1] - tree.up_ptr[u]
                inspected = np.bincount(entry, minlength=len(block))
                _log_work(work_log, level, u, up_count + inspected)
    return changed


def inch2h_decrease(
    index: H2HIndex,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
    work_log: Optional[list] = None,
) -> List[ChangedSuperShortcut]:
    """IncH2H- (Algorithm 5): apply weight *decreases* to the H2H index.

    Mirrors :func:`inch2h_increase`; relaxes instead of recomputing and
    keeps every support counter exact on the fly.  Its IncH2H channels
    are ``anc_scan``, ``queue_push``/``queue_pop`` and
    ``dependent_inspect``.

    Returns
    -------
    list of ((u, depth_a), old_value, new_value)
        The super-shortcuts whose distance value changed (AFF_3), in
        ascending ``depth(u)``, then ``u``, then ``depth_a``.
    """
    with span(names.SPAN_INCH2H_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        # Line 2: update sc(G); C = shortcuts changed, with final weights.
        changed_shortcuts = dch_decrease(index.sc, updates, counter)
        levels = _Levels(index)
        with span(names.SPAN_INCH2H_DECREASE_SEED, delta=len(updates)):
            seed_rows = _seed_decrease(
                index, levels, _shortcut_rows(index, changed_shortcuts, ops)
            )
        with span(names.SPAN_INCH2H_DECREASE_PROPAGATE):
            changed = _decrease_propagate(index, levels, seed_rows, ops, work_log)
        if sp.active:
            _trace_h2h_boundedness(
                sp, index, len(updates), changed_shortcuts, changed, ops, ops_before
            )
    return changed


def _seed_decrease(index, levels, rows) -> dict:
    """Lines 3-12 of Algorithm 5: relax each of *rows* (as in
    :func:`_seed_increase`) at the shortcut's new weight.  Supports are
    maintained exactly on the fly: every seed candidate strictly
    decreased (its shortcut changed), so a tie means one new supporting
    term and an improvement resets the support to that term alone; any
    stale tie recorded against a not-yet-final sd value is erased later
    by the relaxation that finalizes the entry (which resets support).

    Returns ``seed_rows``, a ``(d, u, v) -> candidate row`` memo: the
    propagation uses it to tell whether a seed already applied a
    candidate at its final value (the candidate's sd entry may have been
    finalized by an earlier seed) and must not apply it twice.
    """
    dis = index.dis.reshape(levels.count, levels.n, levels.width)
    sup = index.sup.reshape(dis.shape)
    seed_rows: dict = {}
    for d, u, v, _old_w, new_w in rows:
        tmp = kernels.candidate_row(index, d, u, v, new_w)
        seed_rows[(d, u, v)] = tmp
        row = dis[d, u, : len(tmp)]
        row_sup = sup[d, u]
        better = np.nonzero(tmp < row)[0]
        ties = np.nonzero((tmp == row) & ~np.isinf(tmp))[0]
        first = (d * levels.n + u) * levels.width
        if len(ties):
            index.log_writes(first + ties)
            row_sup[ties] += 1
        if len(better):
            index.log_writes(first + better)
            levels.push(first + better, row[better].copy())
            row[better] = tmp[better]
            row_sup[better] = 1
    return seed_rows


class _SeedMemo:
    """``seed_rows`` as flat arrays, for a whole block of candidates."""

    def __init__(self, seed_rows: dict, n: int) -> None:
        self.n = n
        keys = sorted(seed_rows)
        self.pairs = np.array(
            [(d * n + u) * n + via for d, u, via in keys], dtype=np.int64
        )
        lengths = [len(seed_rows[key]) for key in keys]
        self.starts = np.cumsum([0] + lengths[:-1]).astype(np.int64)
        self.values = np.concatenate([seed_rows[key] for key in keys])

    def applied(self, row, via, column, candidate) -> np.ndarray:
        """True where the seed of label row ``row = d * n + u`` through
        upward neighbor ``via`` already applied ``candidate`` at depth
        ``column``."""
        wanted = row * self.n + via
        at = np.minimum(np.searchsorted(self.pairs, wanted), len(self.pairs) - 1)
        found = (self.pairs[at] == wanted).nonzero()[0]
        out = np.zeros(len(wanted), dtype=bool)
        if len(found):
            seeded = self.values[self.starts[at[found]] + column[found]]
            out[found] = seeded == candidate[found]
        return out


def _decrease_propagate(index, levels, seed_rows, ops, work_log) -> list:
    """Lines 13-22 of Algorithm 5, one depth level of one label matrix at
    a time.

    A level's entries are final (every source is shallower), so each
    dependent candidate is applied exactly once with final values:
    improvements reset the dependent's support, ties add to it.
    """
    tree = index.tree
    dis = index.dis
    weights = index.slot_weights()
    width = levels.width
    memo = _SeedMemo(seed_rows, tree.n) if seed_rows else None
    changed: list = []
    for level, d, keys, originals in levels:
        ops.add("queue_push", len(keys))
        ops.add("queue_pop", len(keys))
        for block, u, da in _blocks(keys, levels, d):
            value = dis.take(block)
            entry, leg, target, via = _dependents(
                tree, levels, d, u, da, level, value != _INF, weights,
                memo is not None,
            )
            ops.add("dependent_inspect", len(leg))
            if work_log is not None:
                _log_work(
                    work_log, level, u, np.bincount(entry, minlength=len(block))
                )
            candidate = leg + value[entry]
            # Only finite candidates at or below the live value can act.
            live = (candidate <= dis.take(target)) & (candidate != _INF)
            target, candidate = target[live], candidate[live]
            if memo is not None:
                keep = ~memo.applied(
                    target // width, via[live], target % width, candidate
                )
                target, candidate = target[keep], candidate[keep]
            _relax(index, levels, target, candidate)
        new = dis.take(keys)
        moved = (new != originals).nonzero()[0]
        row, da = np.divmod(keys[moved], width)
        u = row - d * levels.n if d else row
        _record(changed, levels, d, u, da, originals[moved], new[moved])
    return changed


def _relax(index, levels, target, candidate) -> None:
    """Apply finite candidates ``<= dis`` to their targets: per target,
    the min and how many candidates attain it; a min below the current
    value replaces it with that count as support, an equal min adds the
    count."""
    if not len(target):
        return
    dis, sup = index.dis, index.sup
    order = target.argsort()
    target, candidate = target[order], candidate[order]
    first = _run_starts(target)
    keys, best = target[first], np.minimum.reduceat(candidate, first)
    attained = candidate == best.repeat(_run_lengths(first, len(target)))
    ties = np.add.reduceat(attained.astype(np.int64), first)
    index.log_writes(keys)
    current = dis.take(keys)
    improved = best < current
    sup.put(keys, np.where(improved, ties, sup.take(keys) + ties))
    dis.put(keys[improved], best[improved])
    levels.push(keys[improved], current[improved])

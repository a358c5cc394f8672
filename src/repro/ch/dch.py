"""DCH — the state-of-the-art incremental CH maintenance [39].

``dch_increase`` is Algorithm 2 (DCH+) and ``dch_decrease`` is
Algorithm 3 (DCH-) of the paper.  Section 4.2 proves:

* DCH+ is *subbounded relative to* CHIndexing: it runs in
  ``O(||AFF|| log ||AFF||)`` time, where ``||AFF||`` is the time
  CHIndexing spends on the affected shortcuts;
* DCH- is additionally *bounded relative to* CHIndexing: it runs in
  ``O(|DIFF| log |DIFF|)`` time.

Both functions return the set of shortcuts whose weight changed (the
paper's set ``C``), which IncH2H consumes directly (Algorithms 4-5).

One engine for both directions
------------------------------
Both algorithms run on the arc ids ``d * slots + s`` of the store
(:mod:`repro.ch.shortcut_graph`): the slots themselves on the
undirected index (``D = 1``), and row ``d`` of slot ``s`` on the
directed one (``D = 2``), where the directed Equation (<>) holds per
arc.  The queue ``Q`` is one ``heapq`` of ``(priority, d, slot)``, the
priority ``rank(x) * n + rank(y)`` of ``<x, y>`` (``x`` the lower end)
read from the structure's shared ``prio`` array, so pops come in the
paper's order: lowest lower end first, and ``x -> y`` just before
``y -> x``.  Queue membership is a per-call ``bytearray`` per row,
indexed by slot.  The propagation tallies its pops, pushes and ``scp+``
inspections locally and adds them to the counter once per call.

The upward pairs ``scp+(<x, y>)`` are the ``nbr+(x)`` row itself: the
CH is weight independent and ``nbr+(x)`` is a clique (the elimination
fill), so for every ``w`` in it other than ``y`` the leg ``<x, w>`` is
slot ``ptr[x] + k`` and the partner ``<w, y>`` exists
(:meth:`ShortcutGraph.validate` checks both facts).  On ``D = 2`` the
arc ``x -> y`` is a term ``phi(w -> x) + phi(x -> y)`` of ``w -> y``
and the arc ``y -> x`` a term ``phi(y -> x) + phi(x -> w)`` of
``y -> w``: the leg sits in row ``D - 1 - d`` and the partner in row
``d`` until the walk passes ``y`` (the row is rank sorted), in row
``D - 1 - d`` after it.  A pop picks these rows as per-direction
memoryviews once (on ``D = 1`` they are all the one row), and the
inner loops index them by slot.  It reads the legs' weights and queue
flags as one row slice up front: no partner ``<w, y>`` is a leg
``<x, w'>`` (neither ``w`` nor ``y`` is ``x``), so nothing the walk
writes can change them.  Line 13 of DCH+ stays the scalar
Equation (<>) of :meth:`ShortcutGraph.recompute_slot`.
``tests/reference_dch.py`` and ``tests/reference_directed_dch.py`` keep
the key-based forms, and ``tests/test_dch_slots.py`` and
``tests/test_directed_dch_slots.py`` hold this engine bit-equal to them.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import UpdateError
from repro.ch.shortcut_graph import Shortcut, ShortcutGraph
from repro.graph.graph import WeightUpdate
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter

__all__ = ["dch_increase", "dch_decrease", "ChangedShortcut", "trace_call"]

#: A changed shortcut with its weight before and after the update: the
#: canonical pair on ``D = 1``, ``(tail, head)`` on ``D = 2``.
ChangedShortcut = Tuple[Shortcut, float, float]

_INF = math.inf


def _validate_batch(
    index: ShortcutGraph, updates: Sequence[WeightUpdate], direction: str
) -> None:
    """Check the batch is well-formed and monotone in *direction*: every
    edge (every arc on ``D = 2``) known and updated once."""
    directed = len(index.slot_weights) == 2
    what, arrow = ("arc", " ->") if directed else ("edge", ",")
    seen: Set[Shortcut] = set()
    for (u, v), w in updates:
        key = (u, v) if directed else index.key(u, v)
        if not index.is_graph_edge(u, v):
            raise UpdateError(f"({u}{arrow} {v}) is not an {what} of G")
        if key in seen:
            raise UpdateError(f"{what} ({u}{arrow} {v}) appears twice in one batch")
        seen.add(key)
        if w < 0 or math.isnan(w):
            raise UpdateError(f"invalid weight {w} for {what} ({u}{arrow} {v})")
        old = index.edge_weight(u, v)
        if direction == "increase" and w < old:
            raise UpdateError(
                f"dch_increase got a decrease on ({u}{arrow} {v}): {old} -> {w}"
            )
        if direction == "decrease" and w > old:
            raise UpdateError(
                f"dch_decrease got an increase on ({u}{arrow} {v}): {old} -> {w}"
            )


def trace_call(
    sp, delta: int, changed_count: int, ops, ops_before, **currencies
) -> None:
    """Attach batch size, ``|C|``, any boundedness *currencies* and the
    per-call op counts to the open span *sp* (only when a sink is
    attached)."""
    call_ops = ops.since(ops_before)
    sp.set(
        delta=delta,
        changed=changed_count,
        **currencies,
        ops=call_ops,
        ops_total=sum(call_ops.values()),
    )


def _trace_boundedness(sp, index, delta, changed, ops, ops_before) -> None:
    """:func:`trace_call` with the boundedness currencies ``aff_norm``
    and ``diff`` of an undirected call.

    Only runs when a sink is attached (``sp.active``); the currencies
    require scanning ``scp±`` lists, which must not burden untraced
    runs.  Reads only — the differential test asserts tracing leaves
    the index bit-identical.
    """
    from repro.core.changed import ch_change_metrics  # circular at module level

    metrics = ch_change_metrics(index, delta, changed)
    trace_call(
        sp, delta, len(changed), ops, ops_before,
        aff_norm=metrics.aff_norm, diff=metrics.diff,
    )


def _finish(sp, index, updates, changed, ops, ops_before) -> None:
    """Close a DCH± span: the undirected call carries the boundedness
    currencies the sentinel checks, the directed one only its counts."""
    if len(index.slot_weights) == 1:
        _trace_boundedness(sp, index, len(updates), changed, ops, ops_before)
    else:
        trace_call(sp, len(updates), len(changed), ops, ops_before)


def _directions(index: ShortcutGraph) -> List[Tuple]:
    """Per direction ``d`` of *index*: ``(phi, sup, via, queued, d,
    offset)`` — memoryviews over row ``d`` of the store, a zeroed
    ``bytearray`` of queue flags for the row and the arc id of its slot
    0.  The rows are indexed by slot."""
    wv, _, supv, viav = index.slot_views()
    D = len(index.slot_weights)
    m = len(wv) // D
    return [
        (wv[a : a + m], supv[a : a + m], viav[a : a + m], bytearray(m), d, a)
        for d, a in zip(range(D), range(0, D * m, m))
    ]


def _tally(ops, undirected: bool, pops: int, pushes: int, inspected: int) -> None:
    """Add a propagation's ``queue_pop``, ``queue_push`` and
    ``scp_plus_inspect`` counts to *ops* at once.  Every pop walks
    ``len(nbr+(x)) - 1`` partners (0 for an infinite DCH+ weight): the
    undirected count books every walk, an empty one too, the directed
    count only a walk over a partner, so the keys match the scalar
    reference's on both stores."""
    if pushes:
        ops.add("queue_push", pushes)
    if pops:
        ops.add("queue_pop", pops)
        if undirected or inspected:
            ops.add("scp_plus_inspect", inspected)


def dch_increase(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH+ (Algorithm 2): apply weight *increases* to the CH index.

    Parameters
    ----------
    index:
        The CH index, undirected or directed; mutated in place (weights,
        supports, witnesses and its stored ``phi(e, G)`` copies).
    updates:
        ``((u, v), new_weight)`` pairs — the arc ``u -> v`` on a directed
        index; every new weight must be >= the current ``phi(e, G)``.
    counter:
        Optional instrumentation; channels: ``queue_push``, ``queue_pop``,
        ``scp_plus_inspect``, ``scp_minus_inspect``, ``delta_inspect``.

    Returns
    -------
    list of (shortcut, old_weight, new_weight)
        The paper's set ``C``: shortcuts (arcs ``(tail, head)`` on a
        directed index) whose weight changed, in the order they were
        finalized (ascending rank of lower endpoint).
    """
    _validate_batch(index, updates, "increase")
    rows = _directions(index)
    D = len(rows)
    outer = names.SPAN_DCH_INCREASE if D == 1 else names.SPAN_DIRECTED_DCH_INCREASE
    with span(outer) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        st = index.structure
        slot, up, ptr, rank = st.slot, st.up, st.ptr, index.ordering.rank
        low, high, prio = st.low_view, st.high_view, st.prio_view
        ewv = index.slot_views()[1]
        # A pop of row d reads its own row, then its legs and the partners
        # past y from row D - 1 - d, the last item (the same row when D
        # is 1).
        turns = [(*rows[d], rows[D - 1 - d]) for d in range(D)]
        queue: List[Tuple[int, int, int]] = []
        # A change is keyed by its canonical pair on D = 1 and by
        # (tail, head) on D = 2.
        undirected = D == 1

        # Lines 2-6: consume Delta G.
        with span(names.SPAN_DCH_INCREASE_SEED, delta=len(updates)):
            for (u, v), w in updates:
                ops.add("delta_inspect")
                s = slot[u][v]
                pw, psup, pvia, pq, d, off = rows[(D - 1) * (rank[u] > rank[v])]
                old_edge_weight = ewv[off + s]
                ewv[off + s] = w
                if w > old_edge_weight and old_edge_weight != _INF and (
                    old_edge_weight == pw[s]
                ):
                    sup = psup[s] - 1
                    psup[s] = sup
                    if sup == 0:
                        if not pq[s]:
                            pq[s] = 1
                            heappush(queue, (prio[s], d, s))
                        ops.add("queue_push")
                    elif pvia[s] < 0:  # the edge was the witness
                        index.rewitness_slot(off + s)

        changed: List[ChangedShortcut] = []
        pops = pushes = inspected = 0  # added to the counter once, below
        # Lines 7-13: propagate, lowest lower-endpoint rank first.
        with span(names.SPAN_DCH_INCREASE_PROPAGATE) as sp_prop:
            while queue:
                _, d, s = heappop(queue)
                pw, psup, pvia, pq, pd, off, far = turns[d]
                poff = off
                pq[s] = 0
                pops += 1
                x, y = low[s], high[s]
                old_weight = pw[s]
                stale = []  # partners whose witness was the term via x
                # Lines 9-12: the weight of <x, y> is about to increase; any
                # upward-pair partner <w, y> it currently supports loses one
                # support.  Infinite weights (deleted roads) support nothing
                # by convention, matching evaluate_equation's support counting.
                if old_weight != _INF:
                    row = up[x]
                    inspected += len(row) - 1
                    slot_y = slot[y]
                    legs = far[0][ptr[x] : ptr[x + 1]].tolist()
                    for w_mid, leg_weight in zip(row, legs):
                        if w_mid == y:  # past y, w outranks y
                            pw, psup, pvia, pq, pd, poff = far
                            continue
                        candidate = old_weight + leg_weight
                        if candidate == _INF:
                            continue
                        partner = slot_y[w_mid]
                        if pw[partner] == candidate:
                            sup = psup[partner] - 1
                            psup[partner] = sup
                            if sup == 0:
                                if not pq[partner]:
                                    pq[partner] = 1
                                    heappush(queue, (prio[partner], pd, partner))
                                pushes += 1
                            elif pvia[partner] == x:
                                stale.append(poff + partner)
                # Line 13: recompute weight and support from Equation (<>).
                new_weight = index.recompute_slot(off + s, counter)
                # A partner left with support keeps its weight, but its
                # witness must not name the term that just rose: point it
                # at one that still attains, now that <x, y> is final.
                for k in stale:
                    index.rewitness_slot(k)
                if new_weight != old_weight:
                    forward = x < y if undirected else not d
                    key = (x, y) if forward else (y, x)
                    changed.append((key, old_weight, new_weight))
            _tally(ops, undirected, pops, pushes, inspected)
            sp_prop.set(changed=len(changed))
        if sp.active:
            _finish(sp, index, updates, changed, ops, ops_before)
    return changed


def dch_decrease(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH- (Algorithm 3): apply weight *decreases* to the CH index.

    Mirrors :func:`dch_increase`, undirected or directed; supports are
    kept exact on the fly (see the propagation loop).

    Returns
    -------
    list of (shortcut, old_weight, new_weight)
        Shortcuts (arcs on a directed index) whose weight changed, with
        their original (pre-batch) and final weights.
    """
    _validate_batch(index, updates, "decrease")
    rows = _directions(index)
    D = len(rows)
    outer = names.SPAN_DCH_DECREASE if D == 1 else names.SPAN_DIRECTED_DCH_DECREASE
    with span(outer) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        st = index.structure
        slot, up, ptr, rank = st.slot, st.up, st.ptr, index.ordering.rank
        low, high, prio = st.low_view, st.high_view, st.prio_view
        wv, ewv = index.slot_views()[:2]
        turns = [(*rows[d], rows[D - 1 - d]) for d in range(D)]  # see dch_increase
        queue: List[Tuple[int, int, int]] = []
        undirected = D == 1  # see dch_increase
        pops = pushes = inspected = 0  # see dch_increase
        original: Dict[int, float] = {}  # arc id -> pre-batch weight

        # Lines 2-6: consume Delta G.  A strictly smaller edge weight either
        # relaxes the shortcut (support resets to the edge term alone) or ties
        # it (the edge term newly attains the minimum: one more support).
        with span(names.SPAN_DCH_DECREASE_SEED, delta=len(updates)):
            for (u, v), w in updates:
                ops.add("delta_inspect")
                s = slot[u][v]
                pw, psup, pvia, pq, d, off = rows[(D - 1) * (rank[u] > rank[v])]
                old_edge_w = ewv[off + s]
                ewv[off + s] = w
                current = pw[s]
                if w < current:
                    original.setdefault(off + s, current)
                    pw[s] = w
                    psup[s] = 1
                    pvia[s] = -1
                    if not pq[s]:
                        pq[s] = 1
                        heappush(queue, (prio[s], d, s))
                        ops.add("queue_push")
                elif w == current and w < old_edge_w and w != _INF:
                    psup[s] += 1

        # Lines 7-12: propagate relaxations.  Supports are maintained exactly
        # on the fly: all weights sharing a lower endpoint are final before
        # the first of them pops, so a pair's sum is evaluated with final
        # values; when *both* members of a pair changed, the pair would be
        # evaluated from both pops with the same sum, so the earlier pop
        # (other member still queued) skips it and the later pop applies it.
        # A popped weight is finite: only a smaller value is ever queued.
        with span(names.SPAN_DCH_DECREASE_PROPAGATE):
            while queue:
                _, d, s = heappop(queue)
                pw, psup, pvia, pq, pd, off, far = turns[d]
                pq[s] = 0
                pops += 1
                x, y = low[s], high[s]
                weight_e = pw[s]
                row = up[x]
                inspected += len(row) - 1
                slot_y = slot[y]
                a, b = ptr[x], ptr[x + 1]
                for w_mid, leg_weight, leg_queued in zip(
                    row, far[0][a:b].tolist(), far[3][a:b]
                ):
                    if w_mid == y:  # past y, w outranks y
                        pw, psup, pvia, pq, pd, off = far
                        continue
                    if leg_queued:
                        continue  # the queued leg's pop evaluates this pair
                    partner = slot_y[w_mid]
                    candidate = weight_e + leg_weight
                    current = pw[partner]
                    if candidate < current:
                        original.setdefault(off + partner, current)
                        pw[partner] = candidate
                        psup[partner] = 1
                        pvia[partner] = x
                        if not pq[partner]:
                            pq[partner] = 1
                            heappush(queue, (prio[partner], pd, partner))
                            pushes += 1
                    elif candidate == current and candidate != _INF:
                        psup[partner] += 1
            _tally(ops, undirected, pops, pushes, inspected)

        changed = []
        m = len(low)
        for k, old in original.items():
            new = wv[k]
            if new != old:
                d = k >= m  # row FROM, never at D = 1
                s = k - m if d else k
                x, y = low[s], high[s]
                forward = x < y if undirected else not d
                changed.append(((x, y) if forward else (y, x), old, new))
        if sp.active:
            _finish(sp, index, updates, changed, ops, ops_before)
    return changed

"""The scalar DCH± on canonical keys — the test reference of the slot path.

This is Algorithms 2 and 3 as the library ran them before the slot-native
rewrite of :mod:`repro.ch.dch`: an :class:`AddressableHeap` of canonical
``(u, v)`` keys prioritised by ``(rank, rank)`` tuples, each pop walking
the ``scp_plus`` generator and reading weights, supports and witnesses
through the per-key accessors of :class:`ShortcutGraph`.  It shares
only batch validation and trace bookkeeping with the slot path, so
``tests/test_dch_slots.py`` can hold :func:`repro.ch.dch.dch_increase`
and :func:`repro.ch.dch.dch_decrease` to it: bit-equal ``phi``,
``phi(e, G)``, ``sup`` and ``via``, the same changed list in the same
order, and the same ``OpCounter`` dict.  Its DCH+ repairs witnesses as
the slot path does: a shortcut whose support falls but stays above 0,
and whose witness named the term that rose, takes the witness
Equation (<>) picks at the current weights (uncounted).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.ch.dch import ChangedShortcut, _trace_boundedness, _validate_batch
from repro.ch.shortcut_graph import Shortcut, ShortcutGraph
from repro.graph.graph import WeightUpdate
from repro.obs import names
from repro.obs.trace import span
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap


def reference_dch_increase(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH+ (Algorithm 2): apply weight *increases* to the CH index.

    Parameters
    ----------
    index:
        The CH index; mutated in place (weights, supports, witnesses and
        its stored ``phi(e, G)`` copies).
    updates:
        ``((u, v), new_weight)`` pairs; every new weight must be >= the
        current ``phi(e, G)``.
    counter:
        Optional instrumentation; channels: ``queue_push``, ``queue_pop``,
        ``scp_plus_inspect``, ``scp_minus_inspect``, ``delta_inspect``.

    Returns
    -------
    list of (shortcut, old_weight, new_weight)
        The paper's set ``C``: shortcuts whose weight changed, in the
        order they were finalized (ascending rank of lower endpoint).
    """
    _validate_batch(index, updates, "increase")
    with span(names.SPAN_DCH_INCREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        rank = index.ordering.rank
        queue: AddressableHeap[Shortcut] = AddressableHeap()

        def priority(key: Shortcut) -> Tuple[int, int]:
            u, v = key
            return (min(rank[u], rank[v]), max(rank[u], rank[v]))

        # Lines 2-6: consume Delta G.
        with span(names.SPAN_DCH_INCREASE_SEED, delta=len(updates)):
            for (u, v), w in updates:
                ops.add("delta_inspect")
                key = index.key(u, v)
                old_edge_weight = index.edge_weight(u, v)
                if w > old_edge_weight and not math.isinf(old_edge_weight) and (
                    old_edge_weight == index.weight(u, v)
                ):
                    sup = index.support(u, v) - 1
                    index.set_support(u, v, sup)
                    if sup == 0:
                        queue.push(key, priority(key))
                        ops.add("queue_push")
                    elif index.via(u, v) is None:
                        # The edge was the witness: name a term that
                        # still attains (uncounted, weight unchanged).
                        index.set_edge_weight(u, v, w)
                        index.set_via(u, v, index.evaluate_equation(u, v).via)
                index.set_edge_weight(u, v, w)

        changed: List[ChangedShortcut] = []
        # Lines 7-13: propagate, lowest lower-endpoint rank first.
        with span(names.SPAN_DCH_INCREASE_PROPAGATE) as sp_prop:
            while queue:
                key, _ = queue.pop()
                ops.add("queue_pop")
                u, v = key
                old_weight = index.weight(u, v)
                # Lines 9-12: the weight of <u, v> is about to increase; any
                # upward-pair partner it currently supports loses one support.
                # Infinite weights (deleted roads) support nothing by convention,
                # matching evaluate_equation's support counting.
                triples = (
                    list(index.scp_plus(u, v))
                    if not math.isinf(old_weight)
                    else []
                )
                ops.add("scp_plus_inspect", len(triples))
                stale = []
                for x, w_mid, y in triples:
                    partner = index.key(w_mid, y)
                    candidate = old_weight + index.weight(x, w_mid)
                    if not math.isinf(candidate) and index.weight(*partner) == candidate:
                        sup = index.support(*partner) - 1
                        index.set_support(*partner, sup)
                        if sup == 0:
                            queue.push(partner, priority(partner))
                            ops.add("queue_push")
                        elif index.via(*partner) == x:
                            stale.append(partner)
                # Line 13: recompute weight and support from Equation (<>).
                new_weight = index.recompute(u, v, counter)
                # A partner that keeps its weight must not keep a witness
                # through <u, v>, which has just risen.
                for partner in stale:
                    index.set_via(*partner, index.evaluate_equation(*partner).via)
                if new_weight != old_weight:
                    changed.append((key, old_weight, new_weight))
            sp_prop.set(changed=len(changed))
        if sp.active:
            _trace_boundedness(sp, index, len(updates), changed, ops, ops_before)
    return changed


def reference_dch_decrease(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH- (Algorithm 3): apply weight *decreases* to the CH index.

    Mirrors :func:`reference_dch_increase`; see the module docstring for how
    supports are restored after the relaxation pass.

    Returns
    -------
    list of (shortcut, old_weight, new_weight)
        Shortcuts whose weight changed, with their original (pre-batch)
        and final weights.
    """
    _validate_batch(index, updates, "decrease")
    with span(names.SPAN_DCH_DECREASE) as sp:
        if sp.active and counter is None:
            counter = OpCounter()
        ops = resolve_counter(counter)
        ops_before = ops.as_dict() if sp.active else None
        rank = index.ordering.rank
        queue: AddressableHeap[Shortcut] = AddressableHeap()

        def priority(key: Shortcut) -> Tuple[int, int]:
            u, v = key
            return (min(rank[u], rank[v]), max(rank[u], rank[v]))

        original: dict = {}

        # Lines 2-6: consume Delta G.  A strictly smaller edge weight either
        # relaxes the shortcut (support resets to the edge term alone) or ties
        # it (the edge term newly attains the minimum: one more support).
        with span(names.SPAN_DCH_DECREASE_SEED, delta=len(updates)):
            for (u, v), w in updates:
                ops.add("delta_inspect")
                key = index.key(u, v)
                old_edge_w = index.edge_weight(u, v)
                index.set_edge_weight(u, v, w)
                current = index.weight(u, v)
                if w < current:
                    original.setdefault(key, current)
                    index.set_weight(u, v, w)
                    index.set_support(u, v, 1)
                    index.set_via(u, v, None)
                    if key not in queue:
                        queue.push(key, priority(key))
                        ops.add("queue_push")
                elif w == current and w < old_edge_w and not math.isinf(w):
                    index.set_support(u, v, index.support(u, v) + 1)

        # Lines 7-12: propagate relaxations.  Supports are maintained exactly
        # on the fly: all weights sharing a lower endpoint are final before
        # the first of them pops, so a pair's sum is evaluated with final
        # values; when *both* members of a pair changed, the pair would be
        # evaluated from both pops with the same sum, so the earlier pop
        # (other member still queued) skips it and the later pop applies it.
        with span(names.SPAN_DCH_DECREASE_PROPAGATE):
            while queue:
                key, _ = queue.pop()
                ops.add("queue_pop")
                u, v = key
                weight_e = index.weight(u, v)
                triples = list(index.scp_plus(u, v))
                ops.add("scp_plus_inspect", len(triples))
                for x, w_mid, y in triples:
                    if (index.key(x, w_mid)) in queue:
                        continue  # the other member's pop will evaluate this pair
                    partner = index.key(w_mid, y)
                    candidate = weight_e + index.weight(x, w_mid)
                    current = index.weight(*partner)
                    if candidate < current:
                        original.setdefault(partner, current)
                        index.set_weight(*partner, candidate)
                        index.set_support(*partner, 1)
                        index.set_via(*partner, x)
                        if partner not in queue:
                            queue.push(partner, priority(partner))
                            ops.add("queue_push")
                    elif candidate == current and not math.isinf(candidate):
                        index.set_support(*partner, index.support(*partner) + 1)

        changed = [
            (key, old, index.weight(*key))
            for key, old in original.items()
            if index.weight(*key) != old
        ]
        if sp.active:
            _trace_boundedness(sp, index, len(updates), changed, ops, ops_before)
    return changed

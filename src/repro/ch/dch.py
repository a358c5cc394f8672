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

Support maintenance under decreases
-----------------------------------
Algorithm 3 does not spell out how ``sup`` is kept exact; the paper notes
it "can be done on-the-fly".  Doing it literally on the fly is delicate
because the same shortcut pair can be re-evaluated from both of its
members, so this implementation instead recomputes ``sup``/``via`` from
Equation (<>) for every shortcut *touched* by the decrease pass (weight
changed, or inspected as an upward-pair partner).  The extra work is
tallied in the separate ``"support_fixup"`` counter channel so the
relative-boundedness measurements of the core algorithm stay faithful to
Algorithm 3 as printed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import UpdateError
from repro.ch.shortcut_graph import Shortcut, ShortcutGraph
from repro.graph.graph import WeightUpdate
from repro.obs import names
from repro.obs.trace import span
from repro.perf import kernels
from repro.utils.counters import OpCounter, resolve_counter
from repro.utils.heap import AddressableHeap

__all__ = ["dch_increase", "dch_decrease", "ChangedShortcut"]

#: A changed shortcut with its weight before and after the update.
ChangedShortcut = Tuple[Shortcut, float, float]


def _validate_batch(
    index: ShortcutGraph, updates: Sequence[WeightUpdate], direction: str
) -> None:
    """Check the batch is well-formed and monotone in *direction*."""
    seen: Set[Shortcut] = set()
    for (u, v), w in updates:
        key = index.key(u, v)
        if not index.is_graph_edge(u, v):
            raise UpdateError(f"({u}, {v}) is not an edge of G")
        if key in seen:
            raise UpdateError(f"edge ({u}, {v}) appears twice in one batch")
        seen.add(key)
        if w < 0 or math.isnan(w):
            raise UpdateError(f"invalid weight {w} for edge ({u}, {v})")
        old = index.edge_weight(u, v)
        if direction == "increase" and w < old:
            raise UpdateError(
                f"dch_increase got a decrease on ({u}, {v}): {old} -> {w}"
            )
        if direction == "decrease" and w > old:
            raise UpdateError(
                f"dch_decrease got an increase on ({u}, {v}): {old} -> {w}"
            )


def _trace_boundedness(sp, index, delta, changed, ops, ops_before) -> None:
    """Attach the boundedness currencies and per-call op counts to *sp*.

    Only runs when a sink is attached (``sp.active``); the currencies
    require scanning ``scp±`` lists, which must not burden untraced
    runs.  Reads only — the differential test asserts tracing leaves
    the index bit-identical.
    """
    from repro.core.changed import ch_change_metrics  # circular at module level

    metrics = ch_change_metrics(index, delta, changed)
    current = ops.as_dict()
    call_ops = {
        channel: count - ops_before.get(channel, 0)
        for channel, count in current.items()
        if count - ops_before.get(channel, 0)
    }
    sp.set(
        delta=delta,
        changed=len(changed),
        aff_norm=metrics.aff_norm,
        diff=metrics.diff,
        ops=call_ops,
        ops_total=sum(call_ops.values()),
    )


def dch_increase(
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
                if len(triples) >= kernels.DCH_KERNEL_MIN_TRIPLES:
                    # Batched: within one pop, x and y are fixed and only
                    # the mid w varies, so the partner weights gathered up
                    # front cannot be perturbed by the support writes below
                    # (partners are pairwise distinct, legs never written).
                    cands, currents = kernels.relax_arrays(index, triples, old_weight)
                    hits = np.nonzero(~np.isinf(cands) & (currents == cands))[0]
                    for i in hits:
                        _x, w_mid, y = triples[i]
                        partner = index.key(w_mid, y)
                        sup = index.support(*partner) - 1
                        index.set_support(*partner, sup)
                        if sup == 0:
                            queue.push(partner, priority(partner))
                            ops.add("queue_push")
                else:
                    for x, w_mid, y in triples:
                        partner = index.key(w_mid, y)
                        candidate = old_weight + index.weight(x, w_mid)
                        if not math.isinf(candidate) and index.weight(*partner) == candidate:
                            sup = index.support(*partner) - 1
                            index.set_support(*partner, sup)
                            if sup == 0:
                                queue.push(partner, priority(partner))
                                ops.add("queue_push")
                # Line 13: recompute weight and support from Equation (<>).
                new_weight = index.recompute(u, v, counter)
                if new_weight != old_weight:
                    changed.append((key, old_weight, new_weight))
            sp_prop.set(changed=len(changed))
        if sp.active:
            _trace_boundedness(sp, index, len(updates), changed, ops, ops_before)
    return changed


def dch_decrease(
    index: ShortcutGraph,
    updates: Sequence[WeightUpdate],
    counter: Optional[OpCounter] = None,
) -> List[ChangedShortcut]:
    """DCH- (Algorithm 3): apply weight *decreases* to the CH index.

    Mirrors :func:`dch_increase`; see the module docstring for how
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
                if len(triples) >= kernels.DCH_KERNEL_MIN_TRIPLES:
                    # Batched: x and y are fixed within one pop, so legs
                    # (x, w) and partners (w, y) never coincide — the leg
                    # gathers, partner gathers and queue-membership skip
                    # mask computed up front all stay exact while the
                    # relaxations below write partner weights.
                    cands, currents = kernels.relax_arrays(index, triples, weight_e)
                    live = np.fromiter(
                        (index.key(x, w_mid) not in queue for x, w_mid, _y in triples),
                        dtype=bool,
                        count=len(triples),
                    )
                    finite = ~np.isinf(cands)
                    acted = np.nonzero(
                        live & ((cands < currents) | ((cands == currents) & finite))
                    )[0]
                    for i in acted:
                        x, w_mid, y = triples[i]
                        partner = index.key(w_mid, y)
                        candidate = float(cands[i])
                        current = index.weight(w_mid, y)
                        if candidate < current:
                            original.setdefault(partner, current)
                            index.set_weight(*partner, candidate)
                            index.set_support(*partner, 1)
                            index.set_via(*partner, x)
                            if partner not in queue:
                                queue.push(partner, priority(partner))
                                ops.add("queue_push")
                        else:
                            index.set_support(*partner, index.support(*partner) + 1)
                else:
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

"""The per-entry loop form of :func:`repro.core.changed.h2h_change_metrics`.

One Python iteration per changed super-shortcut, reading ``nbr+(u)``,
``nbr-(u)`` and ``nbr-(a) ∩ des(u)`` through the scalar shortcut-graph
and tree accessors.  ``tests/test_changed_bounds.py`` holds the
vectorised form equal to it.
"""

from __future__ import annotations


def reference_h2h_sums(index, changed_shortcuts, changed_super_shortcuts):
    """``(aff3, aff3_norm, k_anc, k_double_prime)`` of one H2H batch."""
    sc = index.sc
    tree = index.tree
    rank = sc.ordering.rank
    k_anc = 0
    for (a_end, b_end), _old, _new in changed_shortcuts:
        u = a_end if rank[a_end] < rank[b_end] else b_end
        k_anc += int(tree.depth[u]) + 1
    aff3 = aff3_norm = k_double_prime = 0
    for (u, da), _old, _new in changed_super_shortcuts:
        a = int(tree.anc[u][da])
        down_in_desc = sum(1 for _ in tree.down_in_descendants(a, u))
        up_u = len(sc.upward(u))
        down_u = len(sc.downward(u))
        aff3 += 1
        aff3_norm += up_u + down_u + down_in_desc
        k_double_prime += down_u + down_in_desc
    return aff3, aff3_norm, k_anc, k_double_prime

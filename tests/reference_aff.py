"""The reverse-BFS CH ``V_aff`` — the test reference of the subtree path.

This is :func:`repro.serve.aff.ch_affected_vertices` as the library ran
it before ``V_aff`` became a union of elimination-tree subtrees: a
reverse BFS along ``nbr-`` from every endpoint of a changed shortcut,
which finds the downward closure by walking it.  It reads only
``sc.downward``, so ``tests/test_aff_ranges.py`` can hold the
pre-order-range path to it on every publish.
"""

from __future__ import annotations

from typing import Sequence, Set

__all__ = ["reference_ch_affected_vertices"]


def reference_ch_affected_vertices(sc, changed_shortcuts: Sequence) -> Set[int]:
    """The downward closure of every endpoint of a changed shortcut,
    along ``nbr-`` lists of *sc*."""
    seen: Set[int] = set()
    stack = []
    for (u, v), _old, _new in changed_shortcuts:
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    while stack:
        u = stack.pop()
        for v in sc.downward(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen

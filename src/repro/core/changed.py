"""CHANGED / AFF / ||AFF|| / DIFF — the currencies of (sub)boundedness.

Section 4 of the paper grades an incremental algorithm not by input size
but by how much of the *essential data* an update actually touches:

* ``CHANGED`` — the changes in the input (Delta G) and output (index);
* ``AFF`` — the part of the data every construction algorithm must
  inspect that differs after the update;
* ``||AFF||`` — the time the reference construction algorithm
  (CHIndexing / H2HIndexing) spends *on* AFF when run from scratch;
* ``|DIFF|`` — the size of the difference in the reference algorithm's
  inspected data (the relative-boundedness measure of [21]).

This module computes all four, for CH (Examples 4.1-4.2) and H2H
(Section 5's characterization), from the change lists the maintenance
algorithms return.  The values feed the empirical verification in
:mod:`repro.core.bounds` and the affected-fraction plots (Fig. 2e, 2i,
Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.ch.dch import ChangedShortcut
from repro.ch.shortcut_graph import ShortcutGraph
from repro.h2h.inch2h import ChangedLabels, ChangedSuperShortcut
from repro.h2h.index import H2HIndex

__all__ = [
    "ChChangeMetrics",
    "H2HChangeMetrics",
    "ch_change_metrics",
    "h2h_change_metrics",
]


@dataclass(frozen=True)
class ChChangeMetrics:
    """Example 4.1/4.2 quantities for one CH update batch."""

    delta_size: int  #: |Delta G|
    aff2: int  #: shortcuts whose weight changed
    changed: int  #: |CHANGED| = |Delta G| + |AFF_2|
    scp_minus_total: int  #: sum over AFF_2 of |scp-(e)|
    scp_plus_total: int  #: sum over AFF_2 of |scp+(e)|

    @property
    def aff_norm(self) -> int:
        """``||AFF||`` w.r.t. CHIndexing (Example 4.1)."""
        return self.changed + self.scp_minus_total + self.scp_plus_total

    @property
    def diff(self) -> int:
        """``|DIFF|`` w.r.t. CHIndexing (Example 4.2)."""
        return self.changed + self.scp_plus_total


def ch_change_metrics(
    index: ShortcutGraph,
    delta_size: int,
    changed_shortcuts: Sequence[ChangedShortcut],
) -> ChChangeMetrics:
    """Measure CHANGED/AFF/DIFF for a CH batch from its change list."""
    scp_minus_total = 0
    scp_plus_total = 0
    for (u, v), _old, _new in changed_shortcuts:
        scp_minus_total += sum(1 for _ in index.scp_minus(u, v))
        scp_plus_total += sum(1 for _ in index.scp_plus(u, v))
    aff2 = len(changed_shortcuts)
    return ChChangeMetrics(
        delta_size=delta_size,
        aff2=aff2,
        changed=delta_size + aff2,
        scp_minus_total=scp_minus_total,
        scp_plus_total=scp_plus_total,
    )


@dataclass(frozen=True)
class H2HChangeMetrics:
    """Section 5's quantities for one H2H update batch."""

    ch: ChChangeMetrics  #: the metrics of the embedded CH update
    aff3: int  #: super-shortcuts whose value changed
    aff3_norm: int  #: ||AFF_3|| = sum of |nbr+(u)|+|nbr-(u)|+|nbr-(a)∩des(u)|
    k_anc: int  #: K = sum over AFF_2 of |anc(u)| (u = lower endpoint)
    k_double_prime: int  #: K'' = sum over AFF_3 of |nbr-(u)|+|nbr-(a)∩des(u)|

    @property
    def changed(self) -> int:
        """``|CHANGED|`` = |Delta G| + |AFF_2| + |AFF_3|."""
        return self.ch.changed + self.aff3

    @property
    def aff_norm(self) -> int:
        """``||AFF||`` w.r.t. H2HIndexing (Section 5)."""
        return self.ch.aff_norm + self.aff3_norm + self.k_anc

    @property
    def diff(self) -> int:
        """``|DIFF|`` w.r.t. H2HIndexing (Section 5)."""
        return self.ch.diff + self.changed + self.k_anc + self.k_double_prime


def h2h_change_metrics(
    index: H2HIndex,
    delta_size: int,
    changed_shortcuts: Sequence[ChangedShortcut],
    changed_super_shortcuts: Union[ChangedLabels, Sequence[ChangedSuperShortcut]],
) -> H2HChangeMetrics:
    """Measure CHANGED/AFF/DIFF for an H2H batch from its change lists.

    *changed_super_shortcuts* is what IncH2H± returns
    (:class:`~repro.h2h.inch2h.ChangedLabels`) or any sequence of
    ``((u, depth_a), old, new)`` tuples.  The AFF_3 sums are read off
    the tree's CSR row lengths and one ``descendant_ranges`` search for
    all entries at once.
    """
    sc = index.sc
    tree = index.tree
    rank = sc.ordering.rank
    ch = ch_change_metrics(sc, delta_size, changed_shortcuts)

    k_anc = 0
    for (a_end, b_end), _old, _new in changed_shortcuts:
        u = a_end if rank[a_end] < rank[b_end] else b_end
        k_anc += int(tree.depth[u]) + 1

    if isinstance(changed_super_shortcuts, ChangedLabels):
        _d, u, da = changed_super_shortcuts.decode()
    else:
        keys = [key for key, _old, _new in changed_super_shortcuts]
        u = np.array([key[0] for key in keys], dtype=np.int64)
        da = np.array([key[1] for key in keys], dtype=np.int64)
    a = tree.anc_flat[tree.anc_ptr[u] + da]
    lo, hi = tree.descendant_ranges(a, u)
    # |nbr-(u)| + |nbr-(a) ∩ des(u)|, and |nbr+(u)| on top for ||AFF_3||.
    down = int((tree.down_len[u] + (hi - lo)).sum())
    return H2HChangeMetrics(
        ch=ch,
        aff3=len(u),
        aff3_norm=down + int(tree.up_len[u].sum()),
        k_anc=k_anc,
        k_double_prime=down,
    )

"""Level-bounded adjunctive hierarchies.

An unbounded sublinear bound f restricts the element adjoined at step
n+1 to come from level f(n).  Its count triangle is the recurrence of
:mod:`adjhier.recurrence` with g(m) = min{t : f(t) >= m}, the
pointwise-least inverse of f, and every member of level n has its
elements inside level F(n) = max{f(k) : k < n}.

The minimally bounded hierarchy admits an element from level m+1 only
once the whole power set of level m is present.  Its triangle is the
same recurrence with g(m) = abar(m-1) (abar = its level sizes, abar(-1)
= 0) and trailing factor abar(abar(m-1)), which the power-set law makes
equal to 2**abar(m-1).

:class:`BoundFunction` is defined beside the hierarchy specs and
:class:`GInverse` beside the recurrence that uses it; both are imported
here, where the bounded variants are described.
"""

from __future__ import annotations

from .recurrence import CountTable, GInverse, MinBoundedTable, compute_table
from .variants import BoundFunction, HierarchySpec


def inverse_g(f: BoundFunction, m: int) -> int:
    """One-shot least t with f(t) >= m; see :class:`GInverse` for bulk use."""
    return GInverse(f)(m)


def compute_bounded_table(f: BoundFunction, n_max: int) -> CountTable:
    """Fill the f-bounded triangle; the increment of level n sits in
    column F(n) = max f over earlier levels, f(n-1) for monotone f."""
    return compute_table(HierarchySpec.bounded(f), n_max)


def compute_minbounded(n_max: int) -> MinBoundedTable:
    """Fill the minimally bounded triangle, whose g(m) = abar(m-1),
    trailing factor abar(abar(m-1)) and row cap fbar(n-1) are read off
    the growing size prefix."""
    return compute_table(HierarchySpec.min_bounded(), n_max)


def changed_indices(a: list) -> list:
    """Indices where the size sequence moves; what table output keeps
    when duplicate rows are skipped."""
    return [n for n in range(len(a)) if n == 0 or a[n] != a[n - 1]]


def distinct_values(a: list) -> list:
    """The size sequence with consecutive repeats collapsed."""
    out = []
    for v in a:
        if not out or out[-1] != v:
            out.append(v)
    return out


def same_sequence_ignoring_repetitions(a1: list, a2: list) -> bool:
    """Empirical check that two size sequences agree up to repetitions.

    Compares the collapsed sequences over their common length.  This is
    an observation tool, not a guaranteed invariant.
    """
    d1, d2 = distinct_values(a1), distinct_values(a2)
    k = min(len(d1), len(d2))
    return d1[:k] == d2[:k]

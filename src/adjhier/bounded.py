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
imported here, where the bounded variants are described.  Neither g is
given to the recurrence: it reads g off the row caps F(n) and fbar(n-1),
as the row before the first whose cap reaches m.
"""

from __future__ import annotations

from .recurrence import CountTable, MinBoundedTable, compute_table
from .variants import BoundFunction, HierarchySpec


def compute_bounded_table(f: BoundFunction, n_max: int) -> CountTable:
    """Fill the f-bounded triangle; the increment of level n sits in
    column F(n) = max f over earlier levels, f(n-1) for monotone f."""
    return compute_table(HierarchySpec.bounded(f), n_max)


def compute_minbounded(n_max: int) -> MinBoundedTable:
    """Fill the minimally bounded triangle, whose g(m) = abar(m-1),
    trailing factor abar(abar(m-1)) and row cap fbar(n-1) are read off
    the growing size prefix."""
    return compute_table(HierarchySpec.min_bounded(), n_max)

"""Cross-validation of the count recurrences against brute-force levels.

One verifier, :func:`verify`, builds a variant's levels with the oracle,
fills its recurrence table, and reports named checks: for every variant
the level sizes, every cell b(n, m) and every cell's split by k, the
number of its elements new at level m, against the recurrence's three
summands; for plain also the rank and cardinality profiles and the ark
lemma, and for minbounded the power-set law.  The oracle side never
touches the recurrence code paths, so agreement here is a genuine
two-route confirmation.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import oracle
from .bounded import BoundFunction
from .recurrence import compute_table
from .refinements import compute_d_table, compute_r_table, d_profile, r_profile
from .variants import HierarchySpec

# by kind: what the level sizes and the cells are checked against, and
# the detail of a cell check that passes
_NAMES = {
    "plain": ("a(n)", "b(n, m)", "all cells to depth {n_max}"),
    "atoms": ("atoms sequence (u={u})", "atoms b(n, m)", ""),
    "bounded": ("bounded sequence (f={f})", "bounded b(n, m)", ""),
    "minbounded": ("minimally bounded sequence", "minbounded b(n, m)", ""),
}


class Check(namedtuple("Check", "name ok detail", defaults=("",))):
    __slots__ = ()

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _oracle_b(ls, n, m):
    """Oracle-side b(n, m) covering the base column."""
    if m == -1:
        return ls.size(0) if n == 0 else 0
    return oracle.partition_counts(ls, n, m)


def _split_expectation(ls, n, m, g):
    """The three recurrence summands of b(n, m) by k, recomputed from
    oracle counts only: b(n, m-1) at k = 0, b(n-k, m-1) * C(c(m), k) for
    0 < k < n - g, and C(c(m), n - g) * (a(g) - u) at k = n - g, where
    g = g(m); a cell with g >= n has no element new at level m."""
    c_m = _oracle_b(ls, m, m - 1)
    expected = {0: _oracle_b(ls, n, m - 1)}
    for k in range(1, n - g):
        expected[k] = _oracle_b(ls, n - k, m - 1) * math.comb(c_m, k)
    if g < n:
        expected[n - g] = math.comb(c_m, n - g) * (ls.size(g) - ls.spec.u)
    return {k: v for k, v in expected.items() if v}


def verify(spec: HierarchySpec, n_max: int):
    """The oracle levels 0..n_max of ``spec`` and the checks that the
    recurrence agrees with them.  The levels are built first, so a
    refused level keeps its message."""
    ls = oracle.build_levels(spec, n_max)
    table = compute_table(spec, n_max)
    sizes_name, cells_name, cells_ok = _NAMES[spec.kind]
    detail = f"oracle {ls.sizes()}"
    if spec.kind == "atoms":
        detail += f" table {table.sizes}"
    checks = [Check(f"level sizes == {sizes_name.format(u=spec.u, f=spec.f)}",
                    ls.sizes() == table.a, detail)]
    cells = [(n, m) for n in range(1, n_max + 1) for m in range(n)]
    bad = [(n, m) for n, m in cells
           if oracle.partition_counts(ls, n, m) != table.b(n, m)]
    checks.append(Check(f"{cells_name} == oracle partition counts", not bad,
                        f"mismatches {bad}" if bad
                        else cells_ok.format(n_max=n_max)))

    # g(m): the least level whose source level reaches m; n_max when none
    # below n_max does, and then no cell has an element new at level m
    g = [next((t for t, s in enumerate(ls.sources) if s >= m), n_max)
         for m in range(n_max)]
    bad = [(n, m) for n, m in cells if oracle.partition_split(ls, n, m)
           != _split_expectation(ls, n, m, g[m])]
    checks.append(Check("k-split matches the three summands", not bad,
                        f"mismatches {bad}" if bad else "term by term"))

    if spec.kind == "plain":
        for by, profiles, profile in (
                ("rank", compute_r_table(n_max), r_profile),
                ("cardinality", compute_d_table(n_max), d_profile)):
            bad = [n for n in range(n_max + 1) if oracle.profile_counts(
                ls, n, by) != profile(profiles, n)]
            checks.append(Check(f"{by} profiles match", not bad,
                                f"mismatches at n={bad}" if bad else ""))
        report = oracle.verify_ark_lemma(ls)
        checks.append(Check("recursive ark == level membership", report.ok,
                            str(report)))
    elif spec.kind == "minbounded":
        # level(size(n)) must equal the power set of level n: every
        # member is a subset and the count is exactly 2**size(n)
        law = [(n, s) for n, s in enumerate(ls.sizes()) if s <= n_max]
        checks.append(Check(
            "power-set law: level(size(n)) == P(level n)",
            all(ls.level_held(s, n) == ls.size(s) == 2 ** ls.size(n)
                for n, s in law),
            f"verified at indices {[s for _, s in law]}"))
    return ls, checks


def verify_plain(n_max: int = 5):
    return verify(HierarchySpec.plain(), n_max)


def verify_atoms(u: int, n_max: int = 4):
    return verify(HierarchySpec.atoms(u), n_max)


def verify_bounded(f: BoundFunction, n_max: int):
    return verify(HierarchySpec.bounded(f), n_max)


def verify_minbounded(n_max: int = 5):
    return verify(HierarchySpec.min_bounded(), n_max)

"""Cross-validation of the count recurrences against brute-force levels.

Each verifier materializes levels with the oracle, recomputes the same
quantities through the recurrence tables, and reports named checks.  The
oracle side never touches the recurrence code paths, so agreement here
is a genuine two-route confirmation.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import oracle
from .bounded import BoundFunction, compute_bounded_table, compute_minbounded
from .recurrence import compute_b_table
from .refinements import (compute_atoms_table, compute_d_table,
                          compute_r_table, d_profile, r_profile)
from .variants import HierarchySpec


class Check(namedtuple("Check", "name ok detail", defaults=("",))):
    __slots__ = ()

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _oracle_b(ls, n, m):
    """Oracle-side b(n, m) covering the base column."""
    if m == -1:
        return 1 if n == 0 else 0
    return oracle.partition_counts(ls, n, m)


def _split_expectation(ls, n, m):
    """The three recurrence summands recomputed from oracle counts only."""
    c_m = _oracle_b(ls, m, m - 1)
    a_m = ls.size(m)
    expected = {0: _oracle_b(ls, n, m - 1)}
    for k in range(1, n - m):
        expected[k] = _oracle_b(ls, n - k, m - 1) * math.comb(c_m, k)
    expected[n - m] = math.comb(c_m, n - m) * a_m
    return {k: v for k, v in expected.items() if v}


def _shared_checks(spec, n_max, compute, sizes_name, cells_name=None,
                   cells_ok=""):
    """The oracle levels, the recurrence table ``compute(n_max)`` and the
    checks every variant shares: level sizes and, when ``cells_name`` is
    given, every b(n, m) against the oracle's partition counts.  The
    levels are built first, so a refused level keeps its message."""
    ls = oracle.build_levels(spec, n_max)
    table = compute(n_max)
    checks = [Check(f"level sizes == {sizes_name}", ls.sizes() == table.a,
                    f"oracle {ls.sizes()}")]
    if cells_name is not None:
        bad = [(n, m) for n in range(1, n_max + 1) for m in range(n)
               if oracle.partition_counts(ls, n, m) != table.b(n, m)]
        checks.append(Check(f"{cells_name} == oracle partition counts",
                            not bad, f"mismatches {bad}" if bad else cells_ok))
    return ls, table, checks


def verify_plain(n_max: int = 5):
    ls, table, checks = _shared_checks(
        HierarchySpec.plain(), n_max, compute_b_table, "a(n)",
        "b(n, m)", f"all cells to depth {n_max}")

    bad = [(n, m) for n in range(1, n_max + 1) for m in range(n)
           if oracle.partition_split(ls, n, m) != _split_expectation(ls, n, m)]
    checks.append(Check("k-split matches the three summands", not bad,
                        f"mismatches {bad}" if bad else "term by term"))

    rt, dt = compute_r_table(n_max), compute_d_table(n_max)
    bad = [n for n in range(n_max + 1)
           if oracle.profile_counts(ls, n, "rank") != r_profile(rt, n)]
    checks.append(Check("rank profiles match", not bad,
                        f"mismatches at n={bad}" if bad else ""))
    bad = [n for n in range(n_max + 1)
           if oracle.profile_counts(ls, n, "cardinality") != d_profile(dt, n)]
    checks.append(Check("cardinality profiles match", not bad,
                        f"mismatches at n={bad}" if bad else ""))

    report = oracle.verify_ark_lemma(ls)
    checks.append(Check("recursive ark == level membership", report.ok,
                        str(report)))
    return ls, checks


def verify_atoms(u: int, n_max: int = 4):
    ls, table, checks = _shared_checks(
        HierarchySpec.atoms(u), n_max,
        lambda n: compute_atoms_table(u, n),
        f"atoms sequence (u={u})", "atoms b(n, m)")
    checks[0] = checks[0]._replace(
        detail=f"{checks[0].detail} table {table.sizes}")
    return ls, checks


def verify_bounded(f: BoundFunction, n_max: int):
    ls, _, checks = _shared_checks(
        HierarchySpec.bounded(f), n_max,
        lambda n: compute_bounded_table(f, n),
        f"bounded sequence (f={f})", "bounded b(n, m)")
    return ls, checks


def verify_minbounded(n_max: int = 5):
    ls, _, checks = _shared_checks(HierarchySpec.min_bounded(), n_max,
                                   compute_minbounded,
                                   "minimally bounded sequence")

    # level(size(n)) must equal the power set of level n: every member is
    # a subset and the count is exactly 2**size(n)
    sizes = ls.sizes()
    law_ok, examined = True, []
    for n in range(n_max + 1):
        idx = sizes[n]
        if idx > n_max:
            continue
        examined.append(idx)
        law_ok &= (ls.held(ls.members(idx), n) == ls.size(idx)
                   == 2 ** sizes[n])
    checks.append(Check(
        "power-set law: level(size(n)) == P(level n)", law_ok,
        f"verified at indices {examined}"))
    return ls, checks

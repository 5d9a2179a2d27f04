"""Cross-validation of the count recurrences against brute-force levels.

Each verifier materializes levels with the oracle, recomputes the same
quantities through the recurrence tables, and reports named checks.  The
oracle side never touches the recurrence code paths, so agreement here
is a genuine two-route confirmation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .bounded import BoundFunction, compute_bounded_table, compute_minbounded
from .recurrence import a_sequence, compute_b_table
from .refinements import (compute_atoms_table, compute_d_table,
                          compute_r_table, d_profile, r_profile)
from .variants import HierarchySpec


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

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


def verify_plain(n_max: int = 5):
    ls = oracle.build_levels(HierarchySpec.plain(), n_max)
    table = compute_b_table(n_max)
    checks = [Check(
        "level sizes == a(n)",
        ls.sizes() == a_sequence(table),
        f"oracle {ls.sizes()}")]

    bad = [(n, m) for n in range(1, n_max + 1) for m in range(n)
           if oracle.partition_counts(ls, n, m) != table.b(n, m)]
    checks.append(Check("b(n, m) == oracle partition counts", not bad,
                        f"mismatches {bad}" if bad else
                        f"all cells to depth {n_max}"))

    bad = [(n, m) for n in range(1, n_max + 1) for m in range(n)
           if oracle.partition_split(ls, n, m) != _split_expectation(ls, n, m)]
    checks.append(Check("k-split matches the three summands", not bad,
                        f"mismatches {bad}" if bad else "term by term"))

    rt, dt = compute_r_table(n_max), compute_d_table(n_max, table)
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
    ls = oracle.build_levels(HierarchySpec.atoms(u), n_max)
    table = compute_atoms_table(u, n_max)
    checks = [Check(
        f"level sizes == atoms sequence (u={u})",
        ls.sizes() == table.sizes,
        f"oracle {ls.sizes()} table {table.sizes}")]
    bad = [(n, m) for n in range(1, n_max + 1) for m in range(n)
           if oracle.partition_counts(ls, n, m) != table.b(n, m)]
    checks.append(Check("atoms b(n, m) == oracle partition counts", not bad,
                        f"mismatches {bad}" if bad else ""))
    return ls, checks


def verify_bounded(f: BoundFunction, n_max: int):
    ls = oracle.build_levels(HierarchySpec.bounded(f), n_max)
    table = compute_bounded_table(f, n_max)
    checks = [Check(
        f"level sizes == bounded sequence (f={f})",
        ls.sizes() == table.a,
        f"oracle {ls.sizes()}")]
    bad = [(n, m) for n in range(1, n_max + 1) for m in range(n)
           if oracle.partition_counts(ls, n, m) != table.b(n, m)]
    checks.append(Check("bounded b(n, m) == oracle partition counts", not bad,
                        f"mismatches {bad}" if bad else ""))
    return ls, checks


def verify_minbounded(n_max: int = 5):
    ls = oracle.build_levels(HierarchySpec.min_bounded(), n_max)
    table = compute_minbounded(n_max)
    checks = [Check(
        "level sizes == minimally bounded sequence",
        ls.sizes() == table.a,
        f"oracle {ls.sizes()}")]

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

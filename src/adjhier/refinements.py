"""Rank-refined, cardinality-refined, and atoms-variant count recurrences.

Both refinements restrict the triangle cells of the core recurrence by a
threshold t: the rank refinement counts new-at-level-n sets inside level
m whose classical rank is at most t, the cardinality refinement those of
cardinality at most t.  Exact per-value profiles fall out by differencing
the diagonal cells.  The atoms variant is the core recurrence with u
urelements folded into the base cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .recurrence import (CountTable, binomial_big, c_sequence, compute_b_table,
                         compute_table)
from .variants import HierarchySpec


@dataclass
class RefinedTable:
    """Threshold-indexed triangle cells for one refinement kind.

    Cell vectors live at (n, m) for 0 <= m < n <= n_max.  The rank kind
    defines thresholds 0 <= t <= m+1, the cardinality kind 0 <= t <= n;
    reads below range give 0 and reads above range saturate, mirroring
    the set definitions (rank of a subset of level m is at most m+1,
    cardinality of a level-n member at most n).
    """

    kind: str  # "rank" | "cardinality"
    n_max: int
    cells: dict = field(repr=False)

    def _t_cap(self, n: int, m: int) -> int:
        return m + 1 if self.kind == "rank" else n

    def value(self, n: int, m: int, t: int) -> int:
        if t < 0:
            return 0
        if m == -1:
            return 1 if n == 0 else 0
        if not (0 <= m < n <= self.n_max):
            raise IndexError(f"cell ({n}, {m}) outside the filled triangle")
        return self.cells[(n, m)][min(t, self._t_cap(n, m))]

    def diagonal(self, m: int, t: int) -> int:
        """value(m, m-1, t); the profile building block."""
        return self.value(m, m - 1, t) if m >= 1 else (1 if t >= 0 else 0)

    def recompute(self, n: int, m: int, c: list | None = None) -> list:
        """Threshold vector of cell (n, m) from column m-1 and the diagonal.

        The rank kind draws its binomials from the t-1 slice of the
        diagonal; the cardinality kind draws them from the unrefined
        diagonal ``c`` and lowers the threshold by the k elements adjoined.
        """
        v, diag = self.value, self.diagonal
        card = self.kind == "cardinality"
        cell = []
        for t in range(self._t_cap(n, m) + 1):
            x = c[m] if card else diag(m, t - 1)
            s = v(n, m - 1, t)
            for k in range(1, min(n - m - 1, x) + 1):
                s += v(n - k, m - 1, t - k * card) * binomial_big(x, k)
            s += binomial_big(x, n - m) * sum(
                diag(j, t - (n - m) * card) for j in range(m + 1))
            cell.append(s)
        return cell


def _fill(table: RefinedTable, c: list | None = None) -> RefinedTable:
    for m in range(table.n_max):
        for n in range(m + 1, table.n_max + 1):
            table.cells[(n, m)] = table.recompute(n, m, c)
    return table


def compute_r_table(n_max: int) -> RefinedTable:
    """Rank refinement; binomials draw from the t-1 slice of the diagonal."""
    return _fill(RefinedTable("rank", n_max, {}))


def compute_d_table(n_max: int,
                    b_table: CountTable | None = None) -> RefinedTable:
    """Cardinality refinement; binomials use the unrefined diagonal c(m)."""
    if b_table is None:
        b_table = compute_b_table(n_max)
    if b_table.n_max < n_max:
        raise ValueError("plain table too shallow for requested depth")
    return _fill(RefinedTable("cardinality", n_max, {}), c_sequence(b_table))


def _profile(table: RefinedTable, n: int) -> dict:
    if not 0 <= n <= table.n_max:
        raise IndexError(f"profile level {n} beyond depth {table.n_max}")
    return {
        t: sum(table.diagonal(m, t) - table.diagonal(m, t - 1)
               for m in range(n + 1))
        for t in range(n + 1)
    }


def r_profile(table: RefinedTable, n: int) -> dict:
    """Exact histogram {rank: count} over level n; values sum to a(n)."""
    if table.kind != "rank":
        raise ValueError("rank profile needs a rank-refined table")
    return _profile(table, n)


def d_profile(table: RefinedTable, n: int) -> dict:
    """Exact histogram {cardinality: count} over level n."""
    if table.kind != "cardinality":
        raise ValueError("cardinality profile needs a cardinality-refined table")
    return _profile(table, n)


def compute_atoms_table(u: int, n_max: int) -> CountTable:
    """The triangle with u atoms: base cell c(0) = u + 1, so b(n, 0) =
    C(u+1, n), and a trailing prefix that leaves the atoms out."""
    return compute_table(HierarchySpec.atoms(u), n_max)

"""Rank-refined, cardinality-refined, and atoms-variant count recurrences.

Both refinements restrict the triangle cells of the core recurrence by a
threshold t on classical rank or on cardinality.  Each is a list of
layers 0..n_max: plain-shaped count tables, filled by the row step of
:mod:`adjhier.recurrence` with column functions that read the layers
below.  Rank layers are indexed by t, cardinality layers by the
co-cardinality n - t.  Exact per-value profiles fall out by differencing
the diagonal cells.  The atoms variant is the core recurrence with u
urelements folded into the base cell.
"""

from __future__ import annotations

from .recurrence import CountTable, _sweep, compute_table
from .variants import HierarchySpec


class RefinedTable:
    """Threshold-indexed triangle cells for one refinement kind, held in
    layers.  Reads below threshold 0 give 0 and reads above range
    saturate: a subset of level m has rank at most m+1, a member of
    level n cardinality at most n.
    """

    def __init__(self, kind: str, n_max: int, layers: list):
        self.kind = kind  # "rank" | "cardinality"
        self.n_max, self.layers = n_max, layers

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.n_max, self.layers)
                == (other.kind, other.n_max, other.layers))

    def value(self, n: int, m: int, t: int) -> int:
        if t < 0:
            return 0
        s = min(t, self.n_max) if self.kind == "rank" else max(n - t, 0)
        return self.layers[s].b(n, m)

    def diagonal(self, m: int, t: int) -> int:
        """value(m, m-1, t); the profile building block."""
        return self.value(m, m - 1, t)

    @property
    def cells(self) -> dict:
        """{(n, m): [value(n, m, t) for t up to saturation]}."""
        return {(n, m): [self.value(n, m, t) for t in
                         range((m + 1 if self.kind == "rank" else n) + 1)]
                for n in range(1, self.n_max + 1) for m in range(n)}

    def _layer(self, s: int) -> tuple:
        """(c(0), col) of layer s.  Rank layer t holds r(n, m, t); its
        column m adjoins the c(m) of layer t-1 (none when t = 0) and its
        trailing factor is its own a(m).  Cardinality layer s holds
        d(n, m, n - s): adjoining k elements lowers n and t alike, so the
        window stays in the layer.  Column m adjoins the plain c(m) of
        layer 0, the plain table, and its trailing factor, the level-m
        sets of cardinality <= m - s, sums c(j) of layer max(s - m + j,
        0) over j <= m."""
        layers = self.layers
        if self.kind == "rank":
            return 1, lambda t, m: (layers[s - 1].c(m) if s else 0, m, t.a[m])

        def col(t, m):
            at = lambda i: layers[i] if i < s else t
            return at(0).c(m), m, sum(at(max(s - m + j, 0)).c(j)
                                      for j in range(m + 1))
        return int(s == 0), col


def refined_table(kind: str, n_max: int, layer_cells=(),
                  p: int = (1 << 61) - 1) -> RefinedTable:
    """Build layers 0..n_max in order.  Layer s is rebuilt from
    ``layer_cells[s]``, a list of (n, m, value), when that is given, each
    row checked mod the prime p, and filled by the row step otherwise."""
    table = RefinedTable(kind, n_max, [])
    binoms = {}, {}  # binomial rows mod p, and exact ones, shared by layers
    for s in range(n_max + 1):
        cells = layer_cells[s] if s < len(layer_cells) else None
        table.layers.append(_sweep(HierarchySpec.plain(), n_max, cells,
                                   table._layer(s), binoms[cells is None], p))
    return table


def compute_r_table(n_max: int) -> RefinedTable:
    """Rank refinement; layer t adjoins the sets of layer t-1."""
    return refined_table("rank", n_max)


def compute_d_table(n_max: int,
                    b_table: CountTable | None = None) -> RefinedTable:
    """Cardinality refinement; layer 0 is the plain table, whose cells
    are taken from ``b_table`` when it is given."""
    if b_table is not None and b_table.n_max < n_max:
        raise ValueError("plain table too shallow for requested depth")
    return refined_table("cardinality", n_max, [] if b_table is None else [
        [(n, m, v) for m, col in enumerate(b_table.cols)
         for n, v in col.items() if n <= n_max]])


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

"""Exact dynamic programming for the level-count recurrence of every variant.

Counts new sets per level through the triangular family b(n, m) = number
of sets first appearing at level n whose elements all lie in level m.
For n > m >= 0,

    b(n, m) = b(n, m-1)
            + sum_{k=1}^{n-g(m)-1} b(n-k, m-1) * C(c(m), k)
            + C(c(m), n-g(m)) * (a(g(m)) - u)

where c(m) = b(m, m-1) counts the sets new at level m, a(n) = c(0) + ...
+ c(n) is the level size, C(x, k) = 0 when x < k, and the base column is
b(0, -1) = c(0) and b(n, -1) = 0 for n >= 1.  The variants differ only
in c(0), the bound inverse g and the number u of atoms, which the
trailing prefix leaves out because an atom cannot absorb adjunctions:

    plain       c(0) = 1       g(m) = m
    atoms       c(0) = u + 1   g(m) = m
    bounded     c(0) = 1       g(m) = min{t : f(t) >= m}
    minbounded  c(0) = 1       g(m) = a(m-1), g(0) = 0

Every member of level n has its elements inside level cap(n), the
running maximum of n-1 (plain, atoms), f(n-1) (bounded) or the least m
with a(m) > n-1 (minbounded), so the cells with cap(n) < m < n all equal
b(n, cap(n)) and are not stored.  Rows are filled in order, each from
the cells of earlier rows, into sparse columns that keep only nonzero
cells.  Runs of rows that cannot hold a nonzero cell are skipped in
bulk, and each C(c(m), k) is computed once, in a binomial row per value
of c(m), so runs to n in the hundreds of thousands stay cheap when most
rows are zero.  The rank and cardinality refinements fill their layers
through the same row step with column functions of their own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import BoundFunctionError, ResourceCapError
from .variants import BoundFunction, HierarchySpec

# Bits a level size may need before its row is filled (see _sweep).
# Chained from a(0), the bound admits the plain hierarchy through depth
# 22 (2**23 - 1 bits; a(22) has 1,770,521) and refuses depth 23 at once.
ROW_BIT_BUDGET = 3 << 22
# Rows a table may have.  It keeps a(n) and cap(n) for every row, so a
# deeper request is refused before any row is filled; a sparse bound
# (log2) fills 2**22 rows in about a second and 100 MB.
ROW_COUNT_CAP = 1 << 22
# Bits of a power-set-law level size that MinBoundedTable.a_bar_at serves.
A_BAR_BIT_CAP = 1 << 26


class GInverse:
    """Memoized g(m) = min{t : f(t) >= m}.  Bound functions are monotone,
    so g(m) is found past g(m-1) by doubling steps, then bisection: a
    number of calls of f logarithmic in g(m) rather than linear."""

    def __init__(self, f: BoundFunction):
        self.f = f
        self._g = [0]  # g(0) = 0 because f(0) >= 0

    def __call__(self, m: int) -> int:
        if m < 0:
            raise ValueError("g takes natural arguments")
        g = self._g
        while len(g) <= m:
            k = len(g)

            def reaches(t):  # past a table's end counts as reaching
                try:
                    return self.f(t) >= k
                except BoundFunctionError:
                    return True
            lo, step = g[-1], 1  # f(g[-1]) = k - 1
            while not reaches(lo + step):
                lo, step = lo + step, 2 * step
            t = lo + 1 + bisect_left(range(lo + 1, lo + step + 1), True,
                                     key=reaches)
            try:
                v = self.f(t)
            except BoundFunctionError:
                raise BoundFunctionError(
                    f"bound function never reaches {k} on its range; "
                    f"cannot invert at {m}") from None
            g.extend([t] * (v + 1 - k))
        return g[m]


def _params(spec: HierarchySpec):
    """(c(0), col, h) of one spec: ``col(table, m)`` is column m's (c(m),
    g(m), tail(m) = a(g(m)) - u) and cap(n) is the running maximum of
    h(n, a); both read the rows filled so far."""
    u, g, h = spec.u, (lambda m, a: m), (lambda n, a: n - 1)
    if spec.kind == "bounded":
        f, ginv = spec.f, GInverse(spec.f)
        g, h = (lambda m, a: ginv(m)), (lambda n, a: f(n - 1))
    elif spec.kind == "minbounded":
        g = lambda m, a: a[m - 1] if m else 0
        h = lambda n, a: bisect_right(a, n - 1)
    elif spec.kind not in ("plain", "atoms"):
        raise ValueError(f"no count recurrence for {spec}")

    def col(t, m):
        gm = g(m, t.a)
        return t.c(m), gm, t.a[gm] - u
    return u + 1, col, h


class CountTable:
    """Filled count triangle of one hierarchy.

    ``cols[m]`` maps a row n with ``caps[n] >= m`` to b(n, m) when that
    cell is nonzero; ``a`` holds the level sizes and ``col`` the column
    function that filled them.  The cells are immutable once filled.
    Tables are equal when their cells and sizes are; ``col`` is not
    compared.
    """

    def __init__(self, spec: HierarchySpec, n_max: int, cols: list, a: list,
                 caps: list, col):
        self.spec, self.n_max = spec, n_max
        self.cols, self.a, self.caps, self.col = cols, a, caps, col

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.spec, self.n_max, self.cols, self.a, self.caps)
                == (other.spec, other.n_max, other.cols, other.a, other.caps))

    def b(self, n: int, m: int) -> int:
        if not (0 <= n <= self.n_max and -1 <= m < n):
            raise IndexError(f"b({n}, {m}) outside the filled triangle")
        if m == -1:
            return self.a[0] if n == 0 else 0
        return self.cols[min(m, self.caps[n])].get(n, 0)

    def c(self, n: int) -> int:
        """Number of sets first appearing at level n; c(0) is the base cell."""
        return self.b(n, n - 1)

    @property
    def rows(self) -> list:
        """The dense triangle: ``rows[n][j]`` is b(n, j-1) for 0 <= j <= n."""
        return [[self.b(n, m) for m in range(-1, n)]
                for n in range(self.n_max + 1)]

    @property
    def sizes(self) -> list:
        return self.a

    @property
    def _m_caps(self) -> list:
        return self.caps

    def check_row(self, n: int) -> bool:
        """Whether the stored row n equals the row step over rows < n."""
        return _RowStep(self)(n) == [
            self.cols[m].get(n, 0) for m in range(self.caps[n] + 1)]


class MinBoundedTable(CountTable):
    """Count table of the minimally bounded hierarchy, with the bound
    functions that its own level sizes define."""

    def fbar(self, n: int) -> int:
        """Least m with abar(m) > n; the bound function this hierarchy obeys."""
        if self.a[-1] <= n:
            raise ValueError(
                f"depth {self.n_max} insufficient: abar({self.n_max}) <= {n}")
        return bisect_right(self.a, n)

    def fbar_function(self) -> BoundFunction:
        """fbar packaged as a table bound over 0..n_max-1."""
        return BoundFunction("table", tuple(self.fbar(n) for n in range(self.n_max)))

    def a_bar_at(self, idx: int, *, extend: bool = True) -> int:
        """Level size at idx, serving indices beyond n_max when possible.

        Indices that are themselves level sizes follow the power-set law
        abar(abar(j)) = 2**abar(j); a power that would not fit in
        :data:`A_BAR_BIT_CAP` bits is refused.  Anything else is
        recomputed at the needed depth when ``extend`` is set, which the
        fill refuses past :data:`ROW_COUNT_CAP`.
        """
        if idx < 0:
            raise IndexError("negative level")
        if idx <= self.n_max:
            return self.a[idx]
        if idx in set(self.a):
            if idx + 1 > A_BAR_BIT_CAP:
                raise ResourceCapError(
                    f"abar({idx}) needs {idx + 1} bits", cap=A_BAR_BIT_CAP)
            return 1 << idx
        if extend:
            return compute_table(self.spec, idx).a[idx]
        raise IndexError(f"abar({idx}) not derivable from depth {self.n_max}")


class _RowStep:
    """The recurrence's row step over the sparse columns of one table.

    Once a row first reaches column m it takes the column's constants
    c(m), g(m), tail(m) from the table's column function, the sorted rows
    of its stored cells and the binomial row C(c(m), 0), C(c(m), 1), ...
    from ``binoms``, rows keyed by c(m) that the layers of one build
    share.  ``live`` is the last row that the open columns can reach:
    past it every window and tail term is empty until another column
    opens.
    """

    def __init__(self, table: CountTable, binoms=None):
        self.table = table
        self.binoms = {} if binoms is None else binoms
        self.consts = []
        self.rows = []
        self.live = 0

    def __call__(self, n: int) -> list:
        """b(n, 0..cap(n)), read only from the cells of rows < n."""
        cols, consts, rows = self.table.cols, self.consts, self.rows
        cap = self.table.caps[n]
        while len(consts) <= cap:
            self._open(len(consts))
        out = []
        prev = 0  # base column: b(n, -1) = 0 for n >= 1
        for m in range(cap + 1):
            dm, gm, tail, binom = consts[m]
            q = n - gm
            val = prev
            kmax = min(q - 1, dm)  # C(dm, k) = 0 past kmax
            if kmax >= 1 and m >= 1:
                rows_c, vals_c = rows[m - 1], cols[m - 1]
                lo = bisect_left(rows_c, n - kmax)
                hi = bisect_right(rows_c, n - 1)
                if lo < hi:
                    _extend(binom, dm, n - rows_c[lo])
                    for r in rows_c[lo:hi]:
                        val += vals_c[r] * binom[n - r]
            if q <= dm:
                _extend(binom, dm, q)
                val += binom[q] * tail
            out.append(val)
            prev = val
        return out

    def fill(self, n: int):
        """Compute row n and store its nonzero cells."""
        for m, val in enumerate(self(n)):
            if val:
                self.table.cols[m][n] = val
                self.rows[m].append(n)
                self._reach(m + 1, n)

    def _reach(self, m: int, r: int):
        """A stored row r of column m-1 enters column m's window at rows
        r+1 .. r+c(m) when r > g(m); raise ``live`` to the last of them."""
        if m < len(self.consts):
            dm, gm = self.consts[m][:2]
            if r > gm:
                self.live = max(self.live, r + min(dm, self.table.n_max))

    def _open(self, m: int):
        t = self.table
        cm, gm, tail = t.col(t, m)
        # every row n of column m has q = n - g(m) >= 1, and its window
        # [g(m)+1, n-1] never reaches below the rows where column m-1 is
        # stored: only the diagonal factor c(m) needs a saturated read
        if gm >= bisect_left(t.caps, m) or (
                m and bisect_left(t.caps, m - 1) > gm + 1):
            raise ValueError(f"column {m} has g = {gm} below its rows")
        self.consts.append((cm, gm, tail, self.binoms.setdefault(cm, [1, cm])))
        self.rows.append(sorted(t.cols[m]))
        self.live = max(self.live, gm + min(cm, t.n_max))  # the tail term
        if m and self.rows[m - 1]:
            self._reach(m, self.rows[m - 1][-1])


def _extend(row: list, d: int, k: int):
    """Extend the binomial row C(d, 0), C(d, 1), ... through C(d, k) by
    C(d, j) = C(d, j-1) * (d-j+1) // j, exact at every step."""
    for j in range(len(row), k + 1):
        row.append(row[-1] * (d - j + 1) // j)


def _bits_check(n: int, bits: int):
    if bits > ROW_BIT_BUDGET:
        raise ResourceCapError(
            f"level {n} may need {bits} bits, past the budget of "
            f"{ROW_BIT_BUDGET}", level=n, cap=ROW_BIT_BUDGET)


def _sweep(spec: HierarchySpec, n_max: int, cells=None, layer=None,
           binoms=None) -> CountTable:
    """Derive cap(n) and a(n) row by row; each row is filled by the row
    step, or read from ``cells``, a list of (n, m, b(n, m)), when given.
    ``layer`` = (c(0), col) replaces the spec's own, as for refinements,
    and ``binoms`` is a binomial-row store shared with other layers.

    Rows that cannot hold a nonzero cell are not visited: those past the
    row step's ``live`` row (or between stored rows, for ``cells``) are
    zero until cap(n) grows, so the sweep jumps to the next row that is
    live or grows the cap, found by bisection on the monotone cap source.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > ROW_COUNT_CAP:
        raise ResourceCapError(
            f"depth {n_max} is past the row cap of {ROW_COUNT_CAP}",
            level=n_max, cap=ROW_COUNT_CAP)
    f = spec.f
    if f is not None and f.kind == "table" and len(f.values) < n_max:
        raise BoundFunctionError(
            f"table bound covers 0..{len(f.values) - 1} but depth {n_max} "
            f"needs f up to {n_max - 1}")
    base, col, h = _params(spec)
    if layer is not None:
        base, col = layer
    cols = []
    for n, m, v in cells or ():
        if not 0 <= m < n <= n_max:
            raise ValueError(f"cell ({n}, {m}) outside the filled triangle")
        cols.extend({} for _ in range(m + 1 - len(cols)))
        cols[m][n] = v
    cls = MinBoundedTable if spec.kind == "minbounded" else CountTable
    t = cls(spec, n_max, cols, [base], [-1], col)
    step = _RowStep(t, binoms) if cells is None else None
    stored = sorted({n for n, _, _ in cells or ()})
    # Level n holds x with y adjoined, x in level n-1 and y in level
    # cap(n), so bits(a(n)) <= bits(a(n-1)) + bits(a(cap(n))) + 1.  Where
    # cap(n) = n-1 that bound doubles; chained through the leading rows of
    # that kind, it refuses too deep a request before any row is filled.
    bits = base.bit_length()
    for n in range(1, n_max + 1):
        if h(n, t.a) != n - 1:
            break
        bits = 2 * bits + 1
        _bits_check(n, bits)
    n = 1
    while n <= n_max:
        cap = max(t.caps[-1], h(n, t.a))
        if cap >= n:
            raise ValueError(f"column cap {cap} at row {n} is not below it")
        _bits_check(n, t.a[-1].bit_length() + t.a[cap].bit_length() + 1)
        t.caps.append(cap)
        while len(t.cols) <= cap:
            t.cols.append({})
        if step is not None:
            step.fill(n)
            live = n + 1 if step.live > n else n_max + 1
        else:
            i = bisect_right(stored, n)
            live = stored[i] if i < len(stored) else n_max + 1
        t.a.append(t.a[-1] + t.cols[cap].get(n, 0))
        # rows n+1 .. live-1 are zero unless the cap grows among them
        stop = n + 1 + bisect_right(range(n + 1, live), cap,
                                    key=lambda r: h(r, t.a))
        t.caps.extend([cap] * (stop - n - 1))
        t.a.extend([t.a[-1]] * (stop - n - 1))
        n = stop
    if cells is not None and any(m > t.caps[n] for n, m, _ in cells):
        raise ValueError("cells outside the filled triangle")
    return t


def compute_table(spec: HierarchySpec, n_max: int) -> CountTable:
    """Fill the count triangle of ``spec`` through level n_max."""
    return _sweep(spec, n_max)


def table_from_cells(spec: HierarchySpec, n_max: int, cells) -> CountTable:
    """Rebuild a table from its stored cells, a list of (n, m, b(n, m));
    the level sizes and caps are derived as the fill derives them."""
    return _sweep(spec, n_max, cells)


def compute_b_table(n_max: int) -> CountTable:
    """The plain triangle through level n_max."""
    return compute_table(HierarchySpec.plain(), n_max)


def c_sequence(table: CountTable) -> list:
    """[c(0), ..., c(n_max)]: new sets per level."""
    return [table.c(n) for n in range(table.n_max + 1)]


def a_sequence(table: CountTable) -> list:
    """[a(0), ..., a(n_max)]: cumulative level sizes."""
    return list(table.a)

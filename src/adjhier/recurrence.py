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
bulk, so runs to n in the hundreds of thousands stay cheap when most
rows are zero.  The rank and cardinality refinements fill their layers
through the same row step with column functions of their own.  A table
rebuilt from stored cells takes the same sweep, each row's cells checked
against the row step run mod a prime.

A column's window and trailing terms are one sum sum_{k=1}^{K} w_k C(c, k)
with c = c(m), K = min(q, c), q = n - g(m), w_k = b(n-k, m-1) for k < q
and w_q = a(g(m)) - u.  A column whose c(m) fits in a machine word
(:data:`NESTED_MIN_BITS`) reads each C(c(m), k) from a binomial row
computed once per value of c(m); the sparse bounded fills, whose c(m)
stay small, spend their time there.  A wider column evaluates the sum in
nested form (see :func:`_nested`), so that each big product pairs the
one-column-wide factor c(m) - k with a partial sum, and keeps no
binomial row; the deep plain, atoms and refinement fills spend their
time there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat

from .errors import BoundFunctionError, CacheError, ResourceCapError
from .variants import BoundFunction, HierarchySpec

# Bits a level size may need before its row is filled (see _sweep).
# Chained from a(0), the bound admits the plain hierarchy through depth
# 22 (2**23 - 1 bits; a(22) has 1,770,521) and refuses depth 23 at once.
ROW_BIT_BUDGET = 3 << 22
# Rows a table may have; a deeper request is refused before any row is
# filled.  a(n) and cap(n) are kept per run of equal values, so a sparse
# bound (log2) fills 2**22 rows in about 0.2 s and 18 MB.
ROW_COUNT_CAP = 1 << 22
# Bits of a power-set-law level size that MinBoundedTable.a_bar_at serves.
A_BAR_BIT_CAP = 1 << 26
# A column whose c(m) has at least this many bits sums its window and
# trailing terms in nested form; a narrower one reads a binomial row.
# Chosen once per column, when the column opens.
NESTED_MIN_BITS = 65


class Runs:
    """A sequence kept as its runs of equal values: ``starts[i]`` is the
    index where the run of ``values[i]`` begins.  ``append`` adds one
    item and ``repeat(k)`` k more copies of the last, so a long stretch of
    equal level sizes or caps costs one run.  Indexing takes a bisection
    over the run starts, and the last item is read without one.  Read
    like a list: ``==`` against a list or another ``Runs``, iteration,
    ``len``, ``repr``.  ``bisect_left``/``bisect_right`` act as the
    :mod:`bisect` functions on the whole sequence, which they require to
    be nondecreasing, and so does ``in``.
    """

    __slots__ = ("starts", "values", "_len")

    def __init__(self, items=()):
        self.starts, self.values, self._len = [], [], 0
        for v in items:
            self.append(v)

    def append(self, v):
        values = self.values
        if not values or values[-1] != v:
            self.starts.append(self._len)
            values.append(v)
        self._len += 1

    def repeat(self, k: int):
        """Append k more copies of the last item."""
        self._len += k

    def runs(self):
        """(value, length) of each run, in order."""
        ends = self.starts[1:] + [self._len]
        return [(v, e - s) for v, s, e in zip(self.values, self.starts, ends)]

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if i.__class__ is not int:
            return list(self)[i]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("Runs index out of range")
        starts = self.starts
        return self.values[-1 if i >= starts[-1]
                           else bisect_right(starts, i) - 1]

    def __iter__(self):
        for v, k in self.runs():
            yield from repeat(v, k)

    def __eq__(self, other):
        if isinstance(other, Runs):
            return ((self._len, self.starts, self.values)
                    == (other._len, other.starts, other.values))
        if isinstance(other, list):
            return len(other) == self._len and all(
                x == y for x, y in zip(self, other))
        return NotImplemented

    def __repr__(self):
        return repr(list(self))

    def __contains__(self, x):
        i = bisect_left(self.values, x)
        return i < len(self.values) and self.values[i] == x

    def bisect_left(self, x) -> int:
        i = bisect_left(self.values, x)
        return self.starts[i] if i < len(self.starts) else self._len

    def bisect_right(self, x) -> int:
        i = bisect_right(self.values, x)
        return self.starts[i] if i < len(self.starts) else self._len


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
        h = lambda n, a: a.bisect_right(n - 1)
    elif spec.kind not in ("plain", "atoms"):
        raise ValueError(f"no count recurrence for {spec}")

    def col(t, m):
        gm = g(m, t.a)
        return t.c(m), gm, t.a[gm] - u
    return u + 1, col, h


class CountTable:
    """Filled count triangle of one hierarchy.

    ``cols[m]`` maps a row n with ``caps[n] >= m`` to b(n, m) when that
    cell is nonzero; ``a`` and ``caps`` hold the level sizes and row caps
    as :class:`Runs`, and ``col`` the column function that filled them.
    The cells are immutable once filled.
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


class MinBoundedTable(CountTable):
    """Count table of the minimally bounded hierarchy, with the bound
    functions that its own level sizes define."""

    def fbar(self, n: int) -> int:
        """Least m with abar(m) > n; the bound function this hierarchy obeys."""
        if self.a[-1] <= n:
            raise ValueError(
                f"depth {self.n_max} insufficient: abar({self.n_max}) <= {n}")
        return self.a.bisect_right(n)

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
        if idx in self.a:
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
    c(m), g(m), tail(m) from the table's column function and the sorted
    rows of its stored cells.  A column narrower than
    :data:`NESTED_MIN_BITS` also takes the binomial row C(c(m), 0),
    C(c(m), 1), ... from ``binoms``, rows keyed by c(m) that the layers of
    one build share; a wider one is summed in nested form, and ``inner``
    keeps its last innermost product (q, (c(m) - q + 1) * tail(m)), which
    is linear in q.  ``live`` is the last row that the open columns can
    reach: past it every window and tail term is empty until another
    column opens.

    With a prime ``p`` the step runs over residues mod p: every column
    reads a binomial row mod p, keyed by c(m) mod p, and each cell, a sum
    of exact earlier cells times those residues, is reduced once.  c(m)
    and g(m) stay exact, so ``live`` is the exact step's.
    """

    def __init__(self, table: CountTable, binoms=None, p=None):
        self.table, self.p = table, p
        self.binoms = {} if binoms is None else binoms
        self.consts = []
        self.rows = []
        self.inner = {}
        self.live = 0

    def _row(self, n: int, cap: int) -> list:
        """b(n, 0..cap), or its residues mod p, from the cells of rows < n."""
        cols, consts, rows, p = self.table.cols, self.consts, self.rows, self.p
        while len(consts) <= cap:
            self._open(len(consts))
        out = []
        prev = 0  # base column: b(n, -1) = 0 for n >= 1
        for m in range(cap + 1):
            dm, gm, tail, binom = consts[m]
            q = n - gm
            val = prev
            if binom is None:
                val += self._nested_terms(m, n, q)
            else:
                kmax = min(q - 1, dm)  # C(dm, k) = 0 past kmax
                if kmax >= 1 and m >= 1:
                    rows_c, vals_c = rows[m - 1], cols[m - 1]
                    lo = bisect_left(rows_c, n - kmax)
                    hi = bisect_right(rows_c, n - 1)
                    if lo < hi:
                        _extend(binom, binom[1], n - rows_c[lo], p)
                        for r in rows_c[lo:hi]:
                            val += vals_c[r] * binom[n - r]
                if q <= dm:
                    _extend(binom, binom[1], q, p)  # binom[1] = C(d, 1) = d
                    val += binom[q] * tail
                if p is not None:
                    val %= p
            out.append(val)
            prev = val
        return out

    def fill(self, n: int, cap: int, stored=None):
        """Compute row n, whose cap is ``cap``, and store its nonzero
        cells.  ``stored``, the row's cells b(n, 0..cap) as a cache holds
        them, is checked against the row mod p and stored in its place."""
        row = self._row(n, cap)
        if stored is not None:
            if [v % self.p for v in stored] != row:
                raise CacheError(f"cached row {n} fails recomputation")
            row = stored
        for m, val in enumerate(row):
            if val:
                self.table.cols[m][n] = val
                self.rows[m].append(n)
                self._reach(m + 1, n)

    def _nested_terms(self, m: int, n: int, q: int) -> int:
        """Column m's window and tail terms at row n, in nested form.  The
        innermost product (c(m) - q + 1) * tail(m) at row n equals the one
        at an earlier row q' less (q - q') * tail(m), which on consecutive
        rows costs one subtraction."""
        dm, _, tail, _ = self.consts[m]
        get = self.table.cols[m - 1].get if m else {}.get
        w = [get(n - k, 0) for k in range(1, min(q - 1, dm) + 1)]
        if q > dm:  # C(c(m), q) = 0: no tail term
            return _nested(dm, w) if w else 0
        last = self.inner.get(m)
        inner = ((dm - q + 1) * tail if last is None
                 else last[1] - (q - last[0]) * tail)
        self.inner[m] = (q, inner)
        return _nested(dm, w + [tail], inner)

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
        if gm >= t.caps.bisect_left(m) or (
                m and t.caps.bisect_left(m - 1) > gm + 1):
            raise ValueError(f"column {m} has g = {gm} below its rows")
        p = self.p
        d = cm if p is None else cm % p
        binom = (None if p is None and cm.bit_length() >= NESTED_MIN_BITS
                 else self.binoms.setdefault(d, [1, d]))
        self.consts.append((cm, gm, tail if p is None else tail % p, binom))
        self.rows.append(sorted(t.cols[m]))
        self.live = max(self.live, gm + min(cm, t.n_max))  # the tail term
        if m and self.rows[m - 1]:
            self._reach(m, self.rows[m - 1][-1])


def _nested(d: int, w: list, inner=None) -> int:
    """sum_{k=1}^{K} w[k-1] * C(d, k) for K = len(w) >= 1, with no binomial.

    Horner's rule on C(d, k) = d (d-1) ... (d-k+1) / k!: from h = (d-K+1)
    w_K, h <- (d-k+1) (h + w_k K!/k!) for k = K-1 down to 1 gives K! times
    the sum, so one exact division ends it.  Each product of two big
    operands pairs the factor d - k + 1 with a partial sum.  ``inner``,
    when given, is the first product (d-K+1) w_K, which the caller may
    already hold.
    """
    h = (d - len(w) + 1) * w[-1] if inner is None else inner
    f = 1  # K!/k!
    for k in range(len(w) - 1, 0, -1):
        f *= k + 1
        h = (d - k + 1) * (h + w[k - 1] * f)
    return h // f


def _extend(row: list, d: int, k: int, p=None):
    """Extend the binomial row C(d, 0), C(d, 1), ... through C(d, k) by
    C(d, j) = C(d, j-1) * (d-j+1) // j, exact at every step; or, with a
    prime p > k, the row mod p by C(d, j) = C(d, j-1) * (d-j+1) * j^-1."""
    for j in range(len(row), k + 1):
        row.append(row[-1] * (d - j + 1) // j if p is None
                   else row[-1] * (d - j + 1) * pow(j, -1, p) % p)


def _bits_refused(n: int, bits: int) -> ResourceCapError:
    return ResourceCapError(
        f"level {n} may need {bits} bits, past the budget of "
        f"{ROW_BIT_BUDGET}", level=n, cap=ROW_BIT_BUDGET)


def _sweep(spec: HierarchySpec, n_max: int, cells=None, layer=None,
           binoms=None, p=None) -> CountTable:
    """Derive cap(n) and a(n) row by row and fill each row by the row
    step.  With ``cells``, a list of (n, m, b(n, m)) that is sorted in
    place, each row's cells are read from it instead, checked against the
    step mod the prime ``p``; a cell past cap(n) is refused.  ``layer`` =
    (c(0), col) replaces the spec's own, as for refinements, and
    ``binoms`` is a binomial-row store shared with other layers.

    Rows that cannot hold a nonzero cell are not visited: those past the
    row step's ``live`` row and before the next stored row are zero until
    cap(n) grows, so the sweep jumps to the next row that is live, stored
    or grows the cap, found by bisection on the monotone cap source.
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
    for n, m, _ in cells or ():
        if not 0 <= m < n <= n_max:
            raise ValueError(f"cell ({n}, {m}) outside the filled triangle")
    if cells is not None:
        cells.sort()
    cls = MinBoundedTable if spec.kind == "minbounded" else CountTable
    cols, a, caps = [], Runs([base]), Runs([-1])
    t = cls(spec, n_max, cols, a, caps, col)
    step = _RowStep(t, binoms, None if cells is None else p)
    # Level n holds x with y adjoined, x in level n-1 and y in level
    # cap(n), so bits(a(n)) <= bits(a(n-1)) + bits(a(cap(n))) + 1.  Where
    # cap(n) = n-1 that bound doubles; chained through the leading rows of
    # that kind, it refuses too deep a request before any row is filled.
    bits = base.bit_length()
    for n in range(1, n_max + 1):
        if h(n, a) != n - 1:
            break
        bits = 2 * bits + 1
        if bits > ROW_BIT_BUDGET:
            raise _bits_refused(n, bits)
    # the last size and cap, and bits(a(cap)) + 1, are kept here and read
    # without a bisection; h(1) >= 0 sets them on the first row
    n, size, cap, cap_bits, i = 1, base, -1, 0, 0
    while n <= n_max:
        new = max(cap, h(n, a))
        if new >= n:
            raise ValueError(f"column cap {new} at row {n} is not below it")
        if new != cap:
            cap, cap_bits = new, a[new].bit_length() + 1
            while len(cols) <= cap:
                cols.append({})
        bits = size.bit_length() + cap_bits
        if bits > ROW_BIT_BUDGET:
            raise _bits_refused(n, bits)
        caps.append(cap)
        stored, nxt = None, n_max + 1
        if cells is not None:
            stored = [0] * (cap + 1)
            while i < len(cells) and cells[i][0] == n:
                _, m, v = cells[i]
                if m > cap:
                    raise ValueError(f"cell ({n}, {m}) outside the "
                                     f"filled triangle")
                stored[m], i = v, i + 1
            if i < len(cells):
                nxt = cells[i][0]
        step.fill(n, cap, stored)
        size += cols[cap].get(n, 0)
        a.append(size)
        # rows n+1 .. live-1 are zero unless the cap grows among them
        live = n + 1 if step.live > n else nxt
        stop = n + 1 + bisect_right(range(n + 1, live), cap,
                                    key=lambda r: h(r, a))
        if stop > n + 1:
            caps.repeat(stop - n - 1)
            a.repeat(stop - n - 1)
        n = stop
    return t


def compute_table(spec: HierarchySpec, n_max: int) -> CountTable:
    """Fill the count triangle of ``spec`` through level n_max."""
    return _sweep(spec, n_max)


def table_from_cells(spec: HierarchySpec, n_max: int, cells,
                     p: int = (1 << 61) - 1) -> CountTable:
    """Rebuild a table from its stored cells, a list of (n, m, b(n, m)),
    each row checked against the row step mod the prime p; the level
    sizes and caps are derived as the fill derives them."""
    return _sweep(spec, n_max, cells, p=p)


def compute_b_table(n_max: int) -> CountTable:
    """The plain triangle through level n_max."""
    return compute_table(HierarchySpec.plain(), n_max)


def c_sequence(table: CountTable) -> list:
    """[c(0), ..., c(n_max)]: new sets per level."""
    return [table.c(n) for n in range(table.n_max + 1)]


def a_sequence(table: CountTable) -> list:
    """[a(0), ..., a(n_max)]: cumulative level sizes."""
    return list(table.a)

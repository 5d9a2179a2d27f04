import bisect
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from adjhier import oracle, recurrence
from adjhier.cache import _payload_text
from adjhier.errors import ResourceCapError
from adjhier.recurrence import (a_sequence, c_sequence, compute_b_table,
                                compute_table)
from adjhier.refinements import compute_d_table, compute_r_table
from adjhier.variants import BoundFunction, HierarchySpec

from golden import PLAIN_A
from tables import same_table


@pytest.fixture(scope="module")
def t9():
    return compute_b_table(9)


def test_level_sizes_table(t9):
    assert a_sequence(t9) == PLAIN_A
    assert len(str(PLAIN_A[9])) == 66


def test_diagonal_is_consecutive_differences(t9):
    diffs = [1] + [PLAIN_A[n] - PLAIN_A[n - 1] for n in range(1, 10)]
    assert c_sequence(t9) == diffs
    assert t9.b(2, 1) == 2
    assert t9.b(3, 2) == 8
    assert t9.b(4, 3) == 100
    assert t9.b(5, 4) == 11568


def test_base_column_and_first_column(t9):
    assert t9.b(0, -1) == 1
    for n in range(1, 10):
        assert t9.b(n, -1) == 0
    assert t9.b(1, 0) == 1
    for n in range(2, 10):
        assert t9.b(n, 0) == 0


def test_c_sequence_facts(t9):
    c = c_sequence(t9)
    assert c[2] == 2
    a = a_sequence(t9)
    for n in range(1, 10):
        assert a[n] - a[n - 1] == c[n]
    assert c[6] >= 2 ** (2 ** 4)


def test_a_strictly_increasing(t9):
    a = a_sequence(t9)
    assert all(a[n] > a[n - 1] for n in range(1, len(a)))


def test_rows_monotone_in_m():
    t = compute_b_table(12)
    for n in range(1, 13):
        row = [t.b(n, m) for m in range(-1, n)]
        assert all(x <= y for x, y in zip(row, row[1:]))


def test_accessor_bounds(t9):
    with pytest.raises(IndexError):
        t9.b(3, 3)
    with pytest.raises(IndexError):
        t9.b(10, 0)
    with pytest.raises(IndexError):
        t9.b(2, -2)
    with pytest.raises(ValueError):
        compute_b_table(-1)


def test_cells_match_oracle_partitions():
    ls = oracle.build_levels(HierarchySpec.plain(), 4)
    t = compute_b_table(4)
    assert ls.sizes() == a_sequence(t)
    for n in range(1, 5):
        for m in range(n):
            assert oracle.partition_counts(ls, n, m) == t.b(n, m)


def test_variant_tag():
    t = compute_b_table(2)
    assert t.spec == HierarchySpec.plain()


# -- level sizes and caps kept per run ----------------------------------------

@st.composite
def run_ops(draw):
    """Appends of nondecreasing values, some equal to the last, and
    repeats of the last value."""
    ops, v = [], draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 30))):
        if ops and draw(st.booleans()):
            ops.append(("repeat", draw(st.integers(0, 5))))
        else:
            v += draw(st.integers(0, 2))
            ops.append(("append", v))
    return ops


@given(run_ops(), st.lists(st.integers(-6, 70), max_size=8))
def test_runs_read_like_the_list(ops, probes):
    runs, items = recurrence.Runs(), []
    for op, x in ops:
        if op == "append":
            runs.append(x)
            items.append(x)
        else:
            runs.repeat(x)
            items.extend([items[-1]] * x)
    assert len(runs) == len(items)
    assert list(runs) == items and runs == items and items == runs
    assert repr(runs) == repr(items)
    assert runs[1:-1] == items[1:-1]
    for i in range(-len(items) - 2, len(items) + 2):
        if -len(items) <= i < len(items):
            assert runs[i] == items[i]
        else:
            with pytest.raises(IndexError):
                runs[i]
    for x in probes:
        assert runs.bisect_left(x) == bisect.bisect_left(items, x)
        assert runs.bisect_right(x) == bisect.bisect_right(items, x)
        assert (x in runs) == (x in items)
    # one run per stretch of equal items, however it was appended
    assert runs.runs() == [(v, len(list(g)))
                           for v, g in itertools.groupby(items)]
    assert runs == recurrence.Runs(items)
    if items:
        assert runs != items[:-1] and runs != items[:-1] + [items[-1] + 1]
        assert runs != recurrence.Runs(items[:-1])


def _stored(table):
    """The cells a cache file stores for ``table``, read back from its
    payload text, by (n, m)."""
    layer = json.loads("".join(_payload_text(table)))["layers"][0]
    return {(n, m): int(v, 16) for n, m, v in layer}


def test_fills_of_one_spec_are_equal():
    spec = HierarchySpec.bounded(BoundFunction("log2"))
    t = compute_table(spec, 5000)
    assert same_table(t, compute_table(spec, 5000))
    assert _stored(t) == _cells(t)
    assert not same_table(t, compute_table(spec, 4999))
    assert len(t.a.values) == len(set(t.a)) < 100  # runs, not rows
    assert t.caps.values == list(range(-1, 13))  # cap(n) = floor(log2(n-1))


# -- the kernel against a dense row-by-row reference --------------------------

def _reference(spec, n_max):
    """Every cell of rows 1..n_max, row by row with no row skipped and
    math.comb for the binomials; (a, caps, nonzero cells by (n, m))."""
    u, f = spec.u, spec.f
    a, caps, b = [u + 1], [-1], {}

    def cell(n, m):  # b(n, m), saturated past cap(n)
        if m == -1:
            return a[0] if n == 0 else 0
        return b.get((n, min(m, caps[n])), 0)

    def g(m):
        if spec.kind == "bounded":
            return next(t for t in range(m, n_max) if f(t) >= m)
        if spec.kind == "minbounded":
            return a[m - 1] if m else 0
        return m

    for n in range(1, n_max + 1):
        if spec.kind == "bounded":
            h = f(n - 1)
        elif spec.kind == "minbounded":
            h = sum(1 for v in a if v <= n - 1)
        else:
            h = n - 1
        caps.append(max(caps[-1], h))
        prev = 0
        for m in range(caps[n] + 1):
            c, gm = cell(m, m - 1), g(m)
            val = prev + math.comb(c, n - gm) * (a[gm] - u)
            for k in range(1, n - gm):
                val += cell(n - k, m - 1) * math.comb(c, k)
            if val:
                b[(n, m)] = val
            prev = val
        a.append(a[-1] + cell(n, caps[n]))
    return a, caps, b


def _cells(table):
    return {(n, m): v for m, col in enumerate(table.cols)
            for n, v in col.items()}


def _assert_matches_reference(spec, n_max):
    t = compute_table(spec, n_max)
    a, caps, b = _reference(spec, n_max)
    assert (t.a, t.caps, _cells(t)) == (a, caps, b)
    assert _stored(t) == b


@st.composite
def plateau_bounds(draw):
    """Monotone sublinear tables made of runs: long plateaus, and steps
    of f by more than 1 where f(n) <= n allows."""
    values = [0]
    length = draw(st.integers(min_value=1, max_value=150))
    while len(values) < length:
        run = draw(st.integers(min_value=1, max_value=60))
        top = draw(st.integers(min_value=values[-1],
                               max_value=min(values[-1] + 3, 7)))
        for _ in range(run):
            values.append(min(top, len(values)))
    return BoundFunction("table", tuple(values[:length]))


@settings(max_examples=60, deadline=None)
@given(plateau_bounds(), st.data())
def test_bounded_fill_matches_reference(f, data):
    n_max = data.draw(st.integers(min_value=0, max_value=len(f.values)))
    _assert_matches_reference(HierarchySpec.bounded(f), n_max)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=120))
def test_minbounded_fill_matches_reference(n_max):
    _assert_matches_reference(HierarchySpec.min_bounded(), n_max)


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.plain(), 9), (HierarchySpec.atoms(2), 7),
    (HierarchySpec.bounded(BoundFunction("log2")), 300),
    (HierarchySpec.bounded(BoundFunction("sqrt")), 60),
])
def test_fill_matches_reference(spec, n_max):
    _assert_matches_reference(spec, n_max)


# -- wide columns in nested form, narrow ones from binomial rows -------------

@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=65, max_value=4000), st.data())
def test_nested_sum_matches_binomials(bits, data):
    # a column's terms at row n: window cells w_k = b(n-k, m-1) for
    # k < q, some of them zero, then C(c, q) * (a(g(m)) - u) when K = q
    c = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    q = data.draw(st.integers(1, 24))
    cell = st.one_of(st.just(0), st.integers(1, 1 << 3000))
    w = data.draw(st.lists(cell, min_size=q - 1, max_size=q - 1))
    want = sum(wk * math.comb(c, k) for k, wk in enumerate(w, start=1))
    if data.draw(st.booleans()):  # K = q: the tail term, atoms' a(m) - u
        u = data.draw(st.integers(0, 3))
        tail = data.draw(st.integers(u, 1 << 5000)) - u
        want += math.comb(c, q) * tail
        w.append(tail)
    if not w:  # K < q = 1: an empty window and no tail
        return
    K = len(w)
    assert recurrence._nested(c, w) == want
    assert recurrence._nested(c, w, (c - K + 1) * w[-1]) == want


def _layers(table):
    """(a, caps, nonzero cells) of every layer of a count or refined table."""
    return [(t.a, t.caps, _cells(t)) for t in getattr(table, "layers", [table])]


@pytest.mark.parametrize("fill", [
    # plain takes the nested form from row 9 (c(8) has 109 bits), atoms
    # u=2 from row 7 (c(6) has 67), bounded half from column 9
    lambda: compute_b_table(16),
    lambda: compute_table(HierarchySpec.atoms(2), 14),
    lambda: compute_table(HierarchySpec.bounded(BoundFunction("half")), 60),
    lambda: compute_r_table(14),
    lambda: compute_d_table(14),
], ids=["plain 16", "atoms u=2 14", "bounded half 60", "rank 14",
        "cardinality 14"])
def test_nested_columns_equal_binomial_rows(monkeypatch, fill):
    ran = dict.fromkeys(["_nested", "_extend"], 0)
    for name in ran:
        def counted(*args, name=name, f=getattr(recurrence, name)):
            ran[name] += 1
            return f(*args)
        monkeypatch.setattr(recurrence, name, counted)
    default = _layers(fill())
    assert all(ran.values()), ran  # each path runs in the default fill
    ran.update(_nested=0, _extend=0)
    monkeypatch.setattr(recurrence, "NESTED_MIN_BITS", 1 << 30)
    assert _layers(fill()) == default
    assert ran["_nested"] == 0


def test_innermost_product_carries_to_later_rows():
    # plain columns 8..11 are wide at depth 12; a step reads rows < n only
    t = compute_b_table(12)
    col = recurrence._params(t.spec)[1]  # the column function of the fill
    step = recurrence._RowStep(t, col)
    row = lambda step, n: step._row(n, t.caps[n])
    row(step, 10)
    fresh = row(recurrence._RowStep(t, col), 12)
    assert row(step, 12) == fresh  # a skipped row: q - q' = 2
    carried = dict(step.inner)
    assert sorted(carried) == [8, 9, 10, 11]
    for m, (q, p) in carried.items():
        dm, gm, tail, _ = step.consts[m]
        assert (q, p) == (12 - gm, (dm - q + 1) * tail)
    row(step, 11)
    step.inner = {m: (q, p + 1) for m, (q, p) in step.inner.items()}
    assert row(step, 12) != fresh  # row 12 reads the carry


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.atoms(2), 7), (HierarchySpec.min_bounded(), 120),
    (HierarchySpec.bounded(BoundFunction("log2")), 300),
    (HierarchySpec.bounded(BoundFunction("sqrt")), 60),
])
def test_every_column_nested_matches_reference(monkeypatch, spec, n_max):
    # narrow columns in nested form: c(m) below q, where the factor
    # c(m) - k + 1 at k = c(m) + 1 zeroes every term past k = c(m), and
    # c(m) = 0
    monkeypatch.setattr(recurrence, "NESTED_MIN_BITS", 0)
    _assert_matches_reference(spec, n_max)


def test_nested_column_always_has_its_tail_term():
    # a nested column has c(m) >= 2**(NESTED_MIN_BITS - 1), and every row
    # has q = n - g(m) <= ROW_COUNT_CAP, so its window is all of 1..q-1
    # and C(c(m), q) is never zero
    assert recurrence.ROW_COUNT_CAP < 1 << (recurrence.NESTED_MIN_BITS - 1)


@pytest.mark.parametrize("d", [0, 1, 2, 7, 10 ** 30, pytest.param(
    3 ** 700_000, id="3**700000")])  # the last has 1,109,474 bits
def test_binomial_row_matches_stdlib(d):
    # rows start as [C(d, 0), C(d, 1)]; past k = d they hold zeros
    want = [math.comb(d, k) for k in range(4)]
    for row in ([1], [1, d]):
        recurrence._extend(row, d, 3)
        assert row == want
    row = [1]
    recurrence._extend(row, d, 0)
    assert row == [1]


def test_bit_budget_refuses_plain_depth_before_any_row(monkeypatch):
    # chained from a(0) = 1, the bound for a plain level n is 2**(n+1) - 1
    # bits: with that budget for n = 10, depth 10 fills and depth 11 is
    # refused before its first row
    monkeypatch.setattr(recurrence, "ROW_BIT_BUDGET", 2 ** 11 - 1)
    assert compute_b_table(10).a == compute_table(HierarchySpec.plain(),
                                                  10).a
    filled = []
    monkeypatch.setattr(recurrence._RowStep, "fill",
                        lambda self, n: filled.append(n))
    with pytest.raises(ResourceCapError) as err:
        compute_b_table(11)
    assert (err.value.level, err.value.cap, filled) == (11, 2 ** 11 - 1, [])


def test_bit_budget_refuses_the_first_row_past_it(monkeypatch):
    spec = HierarchySpec.min_bounded()
    t = compute_table(spec, 1500)
    bound = [t.a[n - 1].bit_length() + t.a[t.caps[n]].bit_length() + 1
             for n in range(1, 1501)]
    budget = bound[699]  # the bound of level 700
    first = next(n for n, b in enumerate(bound, start=1) if b > budget)
    monkeypatch.setattr(recurrence, "ROW_BIT_BUDGET", budget)
    with pytest.raises(ResourceCapError) as err:
        compute_table(spec, 1500)
    assert err.value.level == first > 700
    assert compute_table(spec, first - 1).a == t.a[:first]

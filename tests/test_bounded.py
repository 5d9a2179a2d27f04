import pytest
from hypothesis import given, settings, strategies as st

from adjhier import oracle
from adjhier.bounded import (BoundFunction, compute_bounded_table,
                             compute_minbounded)
from adjhier.errors import BoundFunctionError
from adjhier.recurrence import GInverse, a_sequence, compute_b_table
from adjhier.variants import HierarchySpec

from golden import HALF_ROWS, LOG2_ROWS, MINBOUNDED_A, SQRT_ROWS


def test_builtin_bound_values():
    f = BoundFunction("half")
    assert [f(n) for n in range(8)] == [0, 1, 1, 2, 2, 3, 3, 4]
    f = BoundFunction("sqrt")
    assert [f(n) for n in (0, 1, 3, 4, 8, 9, 26)] == [0, 1, 1, 2, 2, 3, 5]
    f = BoundFunction("log2")
    assert [f(n) for n in (0, 1, 2, 3, 7, 15, 65535)] == [0, 1, 1, 2, 3, 4, 16]
    assert BoundFunction("identity")(41) == 41


def test_table_validation_reports_first_bad_index():
    with pytest.raises(BoundFunctionError, match=r"f\(2\) = 3"):
        BoundFunction("table", (0, 1, 3))
    with pytest.raises(BoundFunctionError, match="negative"):
        BoundFunction("table", (0, -1))
    with pytest.raises(BoundFunctionError, match=r"not monotone: f\(4\)"):
        BoundFunction("table", (0, 0, 0, 1, 0, 0))
    with pytest.raises(BoundFunctionError, match="unknown"):
        BoundFunction("cube")


def test_dipping_bound_would_break_nesting():
    # why monotonicity is enforced: with a dip back to level 0 the
    # literal level equation cannot rebuild {{{}}}, so level 5 shrinks
    class Dip:
        values = (0, 0, 0, 1, 0, 0)

        def __call__(self, n):
            return self.values[n]

    spec = HierarchySpec("bounded", f=Dip())
    ls = oracle.build_levels(spec, 5)
    sizes = ls.sizes()
    assert sizes == [1, 2, 2, 2, 4, 3]
    assert sizes[5] < sizes[4]


def test_inverse_examples():
    assert GInverse(BoundFunction("identity"))(7) == 7
    assert GInverse(BoundFunction("half"))(2) == 3
    assert GInverse(BoundFunction("sqrt"))(2) == 4
    assert GInverse(BoundFunction("log2"))(16) == 65535
    assert GInverse(BoundFunction("identity"))(0) == 0


def test_inverse_exhaustion_error():
    f = BoundFunction("table", (0, 0, 1, 1, 1))
    with pytest.raises(BoundFunctionError, match="never reaches"):
        GInverse(f)(2)


def test_identity_reduction_cell_for_cell():
    plain = compute_b_table(12)
    tb = compute_bounded_table(BoundFunction("identity"), 12)
    assert tb.a == a_sequence(plain)
    for n in range(13):
        for m in range(-1, n):
            assert tb.b(n, m) == plain.b(n, m)


def _rows_of(table):
    a = table.a
    return [(n, a[n]) for n in range(len(a)) if n == 0 or a[n] != a[n - 1]]


def test_half_sequence_golden():
    tb = compute_bounded_table(BoundFunction("half"), 29)
    assert _rows_of(tb) == HALF_ROWS


def test_sqrt_sequence_prefix():
    tb = compute_bounded_table(BoundFunction("sqrt"), 40)
    assert _rows_of(tb) == [rw for rw in SQRT_ROWS if rw[0] <= 40]


def test_log2_sequence_prefix():
    tb = compute_bounded_table(BoundFunction("log2"), 35)
    assert _rows_of(tb) == [rw for rw in LOG2_ROWS if rw[0] <= 35]


def test_minbounded_sequence_golden():
    mb = compute_minbounded(45)
    assert mb.a == MINBOUNDED_A


def test_fbar_examples():
    mb = compute_minbounded(12)
    assert mb.fbar(0) == 0
    assert mb.fbar(4) == 3
    assert mb.fbar(16) == 5
    with pytest.raises(ValueError, match="insufficient"):
        mb.fbar(10 ** 9)


def test_minbounded_as_bounded_reduction():
    mb = compute_minbounded(20)
    tb = compute_bounded_table(mb.fbar_function(), 20)
    assert tb.a == mb.a
    for n in range(1, 21):
        for m in range(n):
            assert tb.b(n, m) == mb.b(n, m)


def test_powerset_law_and_lookups():
    mb = compute_minbounded(45)
    reachable = [mb.a[n] for n in range(46) if mb.a[n] <= 45]
    assert reachable == [1, 2, 4, 12, 16]
    for idx in reachable:
        assert mb.a[idx] == 2 ** idx == mb.a_bar_at(idx)
    # chained: the size at index 65536 comes from the power-set identity
    assert mb.a_bar_at(65536, extend=False) == 2 ** 65536
    # an index that is neither computed nor a level size needs extension
    with pytest.raises(IndexError):
        mb.a_bar_at(46, extend=False)
    assert mb.a_bar_at(46) == compute_minbounded(46).a[46]
    # absurd materializations are refused, not attempted
    from adjhier.errors import ResourceCapError
    with pytest.raises(ResourceCapError):
        mb.a_bar_at(mb.a[45], extend=False)


def test_von_neumann_subsequence_and_growth():
    mb = compute_minbounded(45)
    # the iterated power-set sizes appear as a subsequence
    assert {2, 4, 16, 65536} <= set(mb.a)
    powerset_indices = {mb.a[n] for n in range(46) if mb.a[n] <= 45}
    for n in range(46):
        if n in powerset_indices:
            assert mb.a[n] == 2 ** n
    # sizes are non-decreasing and (observed on this range) never fall
    # behind 2**n; between power-set indices they run ahead of it
    for n in range(1, 46):
        assert mb.a[n] >= mb.a[n - 1]
        assert mb.a[n] >= 2 ** n
    assert mb.a[3] > 2 ** 3


def test_duplicate_law():
    tb = compute_bounded_table(BoundFunction("sqrt"), 40)
    f = tb.spec.f
    for n in range(1, 41):
        flat = tb.a[n] == tb.a[n - 1]
        assert flat == (tb.b(n, f(n - 1)) == 0)


def test_bounded_tables_match_oracle_builtins():
    for name, depth in (("half", 9), ("sqrt", 27), ("log2", 17)):
        f = BoundFunction(name)
        ls = oracle.build_levels(HierarchySpec.bounded(f), depth)
        tb = compute_bounded_table(f, depth)
        assert ls.sizes() == tb.a
        for n in range(1, depth + 1):
            for m in range(n):
                assert oracle.partition_counts(ls, n, m) == tb.b(n, m)


@pytest.mark.parametrize("depth", [5, 8, 12])
def test_minbounded_cells_match_oracle(depth):
    ls = oracle.build_levels(HierarchySpec.min_bounded(), depth)
    mb = compute_minbounded(depth)
    assert ls.sizes() == mb.a
    for n in range(1, depth + 1):
        for m in range(n):
            assert oracle.partition_counts(ls, n, m) == mb.b(n, m), (n, m)


@st.composite
def sublinear_tables(draw):
    length = draw(st.integers(min_value=6, max_value=9))
    values = [0]
    for i in range(1, length):
        values.append(draw(st.integers(min_value=values[-1], max_value=i)))
    return BoundFunction("table", tuple(values))


@settings(max_examples=40, deadline=None)
@given(sublinear_tables())
def test_random_bound_function_matches_oracle(f):
    # depth small enough that levels stay tiny whatever f does
    depth = 5
    tb = compute_bounded_table(f, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "DEFAULT_LEVEL_SIZE_CAP", 20000)
        ls = oracle.build_levels(HierarchySpec.bounded(f), depth)
    assert ls.sizes() == tb.a
    for n in range(1, depth + 1):
        for m in range(n):
            assert oracle.partition_counts(ls, n, m) == tb.b(n, m)


def test_table_range_must_cover_depth():
    f = BoundFunction("table", (0, 1, 1))
    with pytest.raises(BoundFunctionError, match="depth"):
        compute_bounded_table(f, 5)
    assert compute_bounded_table(f, 3).a == [1, 2, 4, 4]

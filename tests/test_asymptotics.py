import time
from decimal import Context, Decimal, MAX_PREC

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from adjhier.asymptotics import (_root_bounds, constant_C, relative_tail,
                                 sandwich_check)
from adjhier.recurrence import a_sequence, c_sequence, compute_b_table

from golden import CONSTANT_PREFIX


@pytest.fixture(scope="module")
def c12():
    return c_sequence(compute_b_table(12))


def test_constant_matches_published_digits(c12):
    est = constant_C(c12, 30)
    assert str(est.C_value.value).startswith(CONSTANT_PREFIX)
    assert est.terms_used == 12
    assert abs(est.C_value.value - Decimal(CONSTANT_PREFIX)) < Decimal("5e-13")
    assert est.C_value.error < Decimal("1e-30")


@pytest.fixture(scope="module")
def c22():
    return c_sequence(compute_b_table(22))


def _sides(m: int, e: int, k: int, x: int) -> tuple:
    """(m 2**e)**k and x, both scaled by 2**(-e k) when e < 0: exact ints."""
    return (m ** k, x << (-e * k)) if e < 0 else (m ** k << (e * k), x)


@given(st.integers(1, 10 ** 60), st.integers(1, 6), st.integers(1, 64))
@example(2 ** 20 + 1, 1, 1)  # hi must round up when it drops 18 bits
def test_root_bounds_enclose_in_exact_integers(x, N, p):
    # lo 2**e <= x**(2**-N) <= hi 2**e, raised to the 2**N-th power
    lo, hi, e = _root_bounds(x, N, p)
    low, high = _sides(lo, e, 2 ** N, x), _sides(hi, e, 2 ** N, x)
    assert low[0] <= low[1] and high[0] >= high[1]


def _mpf(x: Decimal):
    # exact digits, without str(), whose int conversion is length-guarded
    exp = x.as_tuple().exponent
    return mpmath.mpf(int(x.scaleb(-exp, Context(prec=MAX_PREC)))) * \
        mpmath.mpf(10) ** exp


# N from the paper's range, digits from 1 to 5,000: a fixed sample
@pytest.mark.parametrize("N, digits", [
    (4, 1), (4, 33), (9, 2), (9, 250), (12, 1), (12, 30), (12, 1234),
    (16, 7), (16, 3000), (19, 1), (19, 1000), (19, 5000)])
def test_enclosure_contains_root_at_triple_precision(c22, N, digits):
    est = constant_C(c22[:N + 1], digits)
    p = 10 * (digits + 12) // 3
    lo, hi, e = _root_bounds(c22[N], N, p)
    assert 0 < hi - lo <= 16
    with mpmath.workdps(3 * (digits + 10)):
        ref = mpmath.root(mpmath.mpf(c22[N]), 2 ** N)
        assert mpmath.ldexp(lo, e) <= ref <= mpmath.ldexp(hi, e)
        value = _mpf(est.C_value.value)
        radius = _mpf(est.C_value.error)
        assert value <= ref <= value + radius
    # digits + 10 digits, the last at 10**-(digits + 9)
    assert est.C_value.value.as_tuple().exponent == -(digits + 9)
    assert len(est.C_value.value.as_tuple().digits) == digits + 10


@pytest.mark.parametrize("N, digits, certified", [
    (4, 30, False), (9, 40, False), (12, 30, True), (16, 3000, True),
    (19, 1000, True)])
def test_constant_is_root_of_last_count(c22, N, digits, certified):
    c = c22[:N + 1]
    est = constant_C(c, digits)
    assert est.terms_used == N
    assert est.truncation_bound == relative_tail(c)
    with mpmath.workdps(digits + 20):
        value = mpmath.mpf(str(est.C_value.value))
        radius = mpmath.mpf(str(est.C_value.error))
        assert abs(value - mpmath.root(mpmath.mpf(c[N]), 2 ** N)) <= radius
        # C_19 <= C, so the radius must reach it: the tail term is needed
        assert mpmath.root(mpmath.mpf(c22[19]), 2 ** 19) <= value + radius
    assert (est.C_value.error <= Decimal(f"1e-{digits}")) == certified


def test_constant_at_ten_thousand_digits_is_fast(c22):
    start = time.perf_counter()
    est = constant_C(c22, 10000)
    assert time.perf_counter() - start < 0.6
    assert est.C_value.error <= Decimal("1e-10000")


def test_constant_needs_c1_equal_one(c12):
    with pytest.raises(ValueError, match=r"c\(1\) == 1"):
        constant_C([1, 2] + c12[2:], 30)


def test_constant_partial_sums_monotone(c12):
    prev = None
    for upto in range(4, 13):
        est = constant_C(c12[:upto], 30)
        if prev is not None:
            diff = est.C_value.value - prev.C_value.value
            assert diff >= 0
            assert diff < prev.truncation_bound + prev.C_value.error
        prev = est


def test_constant_three_terms_is_two_to_three_eighths(c12):
    est = constant_C(c12[:4], 30)
    with mpmath.workdps(50):
        ref = Decimal(mpmath.nstr(mpmath.mpf(2) ** mpmath.mpf("0.375"), 40))
    assert abs(est.C_value.value - ref) <= est.C_value.error + Decimal("1e-35")
    # partial sums under-shoot: every dropped residual is nonnegative
    full = constant_C(c12, 30)
    assert est.C_value.value < full.C_value.value


def test_truncation_bound_scale(c12):
    # tail after ten terms: ln(1 + 4/c(8)) / 2**9, around 2.3e-35
    est9 = constant_C(c12[:10], 40)
    up = est9.truncation_bound
    assert Decimal("1e-36") < up < Decimal("1e-34")
    est12 = constant_C(c12, 30)
    assert est12.truncation_bound < Decimal("1e-30")


def test_constant_determinism(c12):
    a = constant_C(c12, 30)
    b = constant_C(c12, 30)
    assert str(a.C_value.value) == str(b.C_value.value)
    assert str(a.C_value.error) == str(b.C_value.error)


def test_sandwich_examples(c12):
    rep = sandwich_check(c12)
    assert rep.ok
    by_n = {e["n"]: e for e in rep.entries}
    assert by_n[2]["lower_margin"] == 2 - 1
    assert by_n[3]["lower_margin"] == 8 - 4
    assert by_n[4]["lower_margin"] == 100 - 64
    # upper at n=4: 64 * (2 + 4) - 100 * 2
    assert by_n[4]["upper_margin"] == 64 * 6 - 200
    with pytest.raises(ValueError):
        sandwich_check(c12[:2])


def test_doubling_inequalities(c12):
    # squared growth compounds: c(n-k)**(2**k) <= c(n) for k <= n,
    # and 2**k c(n-k) <= c(n) for k <= n-1
    for n in range(2, 13):
        for k in range(n + 1):
            assert c12[n - k] ** (2 ** k) <= c12[n]
        for k in range(n):
            assert 2 ** k * c12[n - k] <= c12[n]


def test_tail_dominance_inequality(c12):
    # c(n-1) >= c(n-2) * sum of all earlier diagonal values
    for n in range(2, 13):
        assert c12[n - 1] >= c12[n - 2] * sum(c12[: n - 1])


def test_growth_law(c22):
    # a(n) = C**(2**n) + O(C**(2**(n-1))): on constant_C's interval for C,
    # |a(n) - C**(2**n)| <= C**(2**(n-1)) / 2 and |a(n)/C**(2**n) - 1|
    # falls for n = 5..14; C**(2**14) has 2,081 digits
    a = a_sequence(compute_b_table(14))
    est = constant_C(c22[:17], 2200)
    iv, dps = mpmath.iv, mpmath.iv.dps
    iv.dps = 2300
    try:
        C = (iv.mpf(str(est.C_value.value))
             + iv.mpf(str(est.C_value.error)) * iv.mpf([-1, 1]))
        for n in range(5, 15):
            assert (abs(a[n] - C ** 2 ** n) / C ** 2 ** (n - 1)).b <= 0.5
        dev = [abs(a[n] / C ** 2 ** n - 1) for n in range(5, 15)]
        assert all(x.a > y.b for x, y in zip(dev, dev[1:]))
    finally:
        iv.dps = dps


def test_constant_converts_big_counts_subquadratically(c22):
    # c(21) has about 885k bits: Decimal(int) is quadratic in that size
    c = c22[:22]
    start = time.perf_counter()
    est = constant_C(c, 50)
    fast = time.perf_counter() - start
    start = time.perf_counter()
    Decimal(c[21])
    slow = time.perf_counter() - start
    assert est.terms_used == 21
    assert fast < slow / 3

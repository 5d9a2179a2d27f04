import time
from decimal import Decimal

import mpmath
import pytest
from hypothesis import given, strategies as st

from adjhier.asymptotics import (HPReal, constant_C, relative_tail,
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
def c19():
    return c_sequence(compute_b_table(19))


@given(st.integers(1, 10 ** 30), st.integers(-40, 40), st.integers(0, 999),
       st.integers(-1000, 1000), st.integers(5, 40))
def test_hpreal_sqrt_radius_contract(mant, exp, err_milli, pos_milli, prec):
    # the stored value a with radius e < a, and a true value x within it
    a = Decimal(mant).scaleb(exp)
    e = a * err_milli / 1000
    root = HPReal(a, e, prec).sqrt()
    with mpmath.workdps(120):
        x = mpmath.mpf(str(a)) + mpmath.mpf(str(e)) * pos_milli / 1000
        miss = abs(mpmath.mpf(str(root.value)) - mpmath.sqrt(x))
        assert miss <= mpmath.mpf(str(root.error)) * (1 + mpmath.mpf("1e-60"))


def test_hpreal_sqrt_needs_positive_argument():
    with pytest.raises(ValueError, match="positive"):
        HPReal(Decimal(1), Decimal(1), 30).sqrt()


@pytest.mark.parametrize("N, digits, certified", [
    (4, 30, False), (9, 40, False), (12, 30, True), (16, 3000, True),
    (19, 1000, True)])
def test_constant_is_root_of_last_count(c19, N, digits, certified):
    c = c19[:N + 1]
    est = constant_C(c, digits)
    assert est.terms_used == N
    assert est.truncation_bound.upper() == relative_tail(c)
    with mpmath.workdps(digits + 20):
        value = mpmath.mpf(str(est.C_value.value))
        radius = mpmath.mpf(str(est.C_value.error))
        assert abs(value - mpmath.root(mpmath.mpf(c[N]), 2 ** N)) <= radius
        # C_19 <= C, so the radius must reach it: the tail term is needed
        assert mpmath.root(mpmath.mpf(c19[19]), 2 ** 19) <= value + radius
    assert (est.C_value.error <= Decimal(f"1e-{digits}")) == certified


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
            assert diff < prev.truncation_bound.upper() + prev.C_value.error
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
    up = est9.truncation_bound.upper()
    assert Decimal("1e-36") < up < Decimal("1e-34")
    est12 = constant_C(c12, 30)
    assert est12.truncation_bound.upper() < Decimal("1e-30")


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


def test_growth_law(c12):
    # on constant_C's interval for C, |a(n)/C**(2**n) - 1| falls for
    # n = 5..9, and at n = 9 sits below ten times C**(-2**8)
    a = a_sequence(compute_b_table(12))
    est = constant_C(c12, 40)
    iv, dps = mpmath.iv, mpmath.iv.dps
    iv.dps = 60
    try:
        C = (iv.mpf(str(est.C_value.value))
             + iv.mpf(str(est.C_value.error)) * iv.mpf([-1, 1]))
        dev = [abs(a[n] / C ** 2 ** n - 1) for n in range(5, 10)]
        assert all(x.a > y.b for x, y in zip(dev, dev[1:]))
        assert dev[-1].b < (10 / C ** 2 ** 8).a
    finally:
        iv.dps = dps


def test_constant_converts_big_counts_subquadratically():
    # c(21) has about 885k bits: Decimal(int) is quadratic in that size
    c = c_sequence(compute_b_table(21))
    start = time.perf_counter()
    est = constant_C(c, 50)
    fast = time.perf_counter() - start
    start = time.perf_counter()
    Decimal(c[21])
    slow = time.perf_counter() - start
    assert est.terms_used == 21
    assert fast < slow / 3

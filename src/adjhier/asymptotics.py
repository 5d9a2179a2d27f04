"""Growth-constant extraction with certified error bounds.

The per-level counts satisfy c(n) ~ C**(2**n); writing u(n) = ln c(n)
and r(n) = u(n) - 2*u(n-1), the constant is C = exp(sum over k >= 2 of
r(k) / 2**k), a series whose tail past index N is at most
ln(1 + 4/c(N-1)) / 2**N, so very few terms give many digits.

Everything analytic is carried as an :class:`HPReal`: a decimal value at
a stated working precision together with a rigorous radius around it.
Radii only grow: each operation adds conservatively propagated input
radii plus one unit in the last place for its own rounding (decimal
arithmetic is correctly rounded, so one ulp is a safe overestimate).
Exact integer claims (the sandwich inequalities) are checked in integer
arithmetic, never through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN
from functools import lru_cache

from .numstr import _int_to_decimal

# Error-bound arithmetic rounds outward; a dozen digits is plenty for bounds.
_UP = Context(prec=12, rounding=ROUND_CEILING, Emax=999999999, Emin=-999999999)
_DOWN = Context(prec=12, rounding=ROUND_FLOOR, Emax=999999999, Emin=-999999999)


def _value_context(prec: int) -> Context:
    return Context(prec=prec, rounding=ROUND_HALF_EVEN,
                   Emax=999999999, Emin=-999999999)


def _ulp(prec: int, result: Decimal) -> Decimal:
    # correctly rounded results are within one ulp; exact zeros need none
    if result == 0:
        return Decimal(0)
    return Decimal(1).scaleb(result.adjusted() - prec + 1)


@dataclass(frozen=True)
class HPReal:
    """A decimal approximation plus a rigorous radius |stored - true|."""

    value: Decimal
    error: Decimal
    precision: int

    @classmethod
    def exact(cls, x, precision: int) -> "HPReal":
        return cls(Decimal(x), Decimal(0), precision)

    def _pair_ctx(self, other: "HPReal"):
        prec = min(self.precision, other.precision)
        return prec, _value_context(prec)

    def __add__(self, other: "HPReal") -> "HPReal":
        prec, ctx = self._pair_ctx(other)
        v = ctx.add(self.value, other.value)
        e = _UP.add(_UP.add(self.error, other.error), _ulp(prec, v))
        return HPReal(v, e, prec)

    def __sub__(self, other: "HPReal") -> "HPReal":
        prec, ctx = self._pair_ctx(other)
        v = ctx.subtract(self.value, other.value)
        e = _UP.add(_UP.add(self.error, other.error), _ulp(prec, v))
        return HPReal(v, e, prec)

    def __mul__(self, other: "HPReal") -> "HPReal":
        prec, ctx = self._pair_ctx(other)
        v = ctx.multiply(self.value, other.value)
        e = _UP.add(_UP.multiply(abs(self.value), other.error),
                    _UP.multiply(abs(other.value), self.error))
        e = _UP.add(e, _UP.multiply(self.error, other.error))
        e = _UP.add(e, _ulp(prec, v))
        return HPReal(v, e, prec)

    def __truediv__(self, other: "HPReal") -> "HPReal":
        prec, ctx = self._pair_ctx(other)
        if other.error >= abs(other.value):
            raise ZeroDivisionError("divisor not certified away from zero")
        v = ctx.divide(self.value, other.value)
        denom = _DOWN.subtract(abs(other.value), other.error)
        num = _UP.add(self.error, _UP.multiply(abs(v), other.error))
        e = _UP.add(_UP.divide(num, denom), _ulp(prec, v))
        return HPReal(v, e, prec)

    def times_exact(self, k) -> "HPReal":
        """Multiply by an exactly representable scalar (int or Decimal)."""
        d = Decimal(k) if isinstance(k, int) else k
        ctx = _value_context(self.precision)
        v = ctx.multiply(self.value, d)
        e = _UP.add(_UP.multiply(abs(d), self.error), _ulp(self.precision, v))
        return HPReal(v, e, self.precision)

    def exp(self) -> "HPReal":
        if self.error > Decimal("0.5"):
            raise ValueError("radius too large to certify exp")
        ctx = _value_context(self.precision)
        v = ctx.exp(self.value)
        # |exp(a+d) - exp(a)| <= exp(a) (e**|d| - 1) <= exp(a) (|d| + d*d)
        prop = _UP.multiply(v, _UP.add(self.error,
                                       _UP.multiply(self.error, self.error)))
        e = _UP.add(prop, _ulp(self.precision, v))
        return HPReal(v, e, self.precision)

    def ln(self) -> "HPReal":
        if self.value <= self.error:
            raise ValueError("argument not certified positive")
        ctx = _value_context(self.precision)
        v = ctx.ln(self.value)
        # |ln(a+d) - ln(a)| <= |d| / (a - |d|)
        prop = _UP.divide(self.error, _DOWN.subtract(self.value, self.error))
        e = _UP.add(prop, _ulp(self.precision, v))
        return HPReal(v, e, self.precision)

    def __abs__(self) -> "HPReal":
        return HPReal(abs(self.value), self.error, self.precision)

    def upper(self) -> Decimal:
        return _UP.add(self.value, self.error)

    def __str__(self):
        return f"{self.value} ± {self.error}"


def _exact_half_power(k: int) -> Decimal:
    # 2**-k = 5**k * 10**-k, exactly representable in decimal
    return Decimal(5 ** k).scaleb(-k)


@lru_cache(maxsize=16)
def _ln2(prec: int) -> Decimal:
    # correctly rounded, so the same at a given precision for every caller
    return _value_context(prec).ln(Decimal(2))


def log_big(x: int, digits: int) -> HPReal:
    """Natural log of a positive integer, radius at most 10**-digits.

    Splits x into bit length and a mantissa in [1, 2): ln x = k ln 2 +
    ln(x / 2**k), evaluated with ten guard digits (plus the width of k,
    so million-bit inputs keep the stated radius).
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if x < 1:
        raise ValueError("log_big needs a positive integer")
    k = x.bit_length() - 1
    prec = digits + 10 + len(str(k + 1))
    if x == 1:
        return HPReal(Decimal(0), Decimal(0), prec)
    ctx = _value_context(prec)
    ln2_val = _ln2(prec)
    ln2 = HPReal(ln2_val, _ulp(prec, ln2_val), prec)
    mant_val = ctx.divide(_int_to_decimal(x), _int_to_decimal(1 << k))
    mant = HPReal(mant_val, _ulp(prec, mant_val), prec)
    result = ln2.times_exact(k) + mant.ln()
    if result.error > Decimal(1).scaleb(-digits):
        raise AssertionError("guard digits failed to hold the radius")
    return result


def residuals(c: list, digits: int) -> list:
    """[r(2), r(3), ...] with r(n) = ln c(n) - 2 ln c(n-1)."""
    if len(c) < 3:
        raise ValueError("need counts through index 2")
    us = [log_big(v, digits) for v in c]
    return [us[n] - us[n - 1].times_exact(2) for n in range(2, len(c))]


@dataclass(frozen=True)
class ConstantEstimate:
    """Certified estimate of the growth constant.

    ``truncation_bound`` dominates the dropped series tail
    sum_{k>N} r(k)/2**k <= ln(1 + 4/c(N-1)) / 2**N; the radius of
    ``C_value`` already folds it in together with all rounding.
    """

    C_value: HPReal
    terms_used: int
    truncation_bound: HPReal


def constant_C(c: list, digits: int) -> ConstantEstimate:
    """exp of the partial residual series through N = len(c) - 1."""
    if len(c) < 4:
        raise ValueError("need counts through index 3")
    N = len(c) - 1
    # survive the 2**-k scaling and the final exp
    wp = digits + 10 + math.ceil(N * math.log10(2))
    rs = residuals(c, digits=wp)
    total = HPReal.exact(0, rs[0].precision)
    for k, r in enumerate(rs, start=2):
        total = total + r.times_exact(_exact_half_power(k))
    grown = total.exp()

    four_over = HPReal.exact(4, grown.precision) / HPReal.exact(c[N - 1], grown.precision)
    tail = (HPReal.exact(1, grown.precision) + four_over).ln() \
        .times_exact(_exact_half_power(N))
    # true C = exp(S + t) with 0 <= t <= tail: add exp(tail)-1 <= tail(1+tail) relatively
    tail_up = tail.upper()
    slack = _UP.multiply(grown.value,
                         _UP.multiply(tail_up, _UP.add(Decimal(1), tail_up)))
    value = HPReal(grown.value, _UP.add(grown.error, slack), grown.precision)
    return ConstantEstimate(value, N, tail)


@dataclass
class SandwichReport:
    """Exact-integer margins for the squared-growth sandwich."""

    entries: list  # dicts with n, lower_margin, upper_margin

    @property
    def ok(self) -> bool:
        return all(e["lower_margin"] >= 0 and e["upper_margin"] >= 0
                   for e in self.entries)


def sandwich_check(c: list) -> SandwichReport:
    """c(n-1)**2 <= c(n) <= c(n-1)**2 (1 + 4/c(n-2)), checked exactly.

    The upper bound is cleared of the fraction: c(n) c(n-2) must not
    exceed c(n-1)**2 (c(n-2) + 4).
    """
    if len(c) < 3:
        raise ValueError("need counts through index 2")
    entries = []
    for n in range(2, len(c)):
        sq = c[n - 1] * c[n - 1]
        entries.append({
            "n": n,
            "lower_margin": c[n] - sq,
            "upper_margin": sq * (c[n - 2] + 4) - c[n] * c[n - 2],
        })
    return SandwichReport(entries)


def ratio_check(a: list, est: ConstantEstimate, n: int) -> HPReal:
    """|a(n) / C**(2**n) - 1|, the observable form of the growth law.

    The power is built by n squarings with the radius carried along;
    raises when the requested precision cannot resolve the deviation.
    """
    if not 0 <= n < len(a):
        raise IndexError(f"level {n} outside the provided sizes")
    power = est.C_value
    for _ in range(n):
        power = power * power
    dev = abs(HPReal.exact(a[n], power.precision) / power
              - HPReal.exact(1, power.precision))
    if dev.value == 0 or dev.error >= abs(dev.value):
        raise ValueError(
            f"precision {est.C_value.precision} cannot resolve the "
            f"deviation after {n} squarings")
    return dev

"""Growth-constant extraction with certified error bounds.

The per-level counts satisfy c(n) ~ C**(2**n), and the partial constant
C_N = c(N)**(2**-N) is taken as N square roots (as c(1) = 1, the residual
series sum_{k=2..N} (ln c(k) - 2 ln c(k-1)) / 2**k telescopes to ln C_N).
The sandwich c(n-1)**2 <= c(n) <= c(n-1)**2 (1 + 4/c(n-2)) and Bernoulli's
inequality give C_N <= C <= C_N (1 + 4/(2**N c(N-1))): few levels, many digits.

Everything analytic is carried as an :class:`HPReal`: a decimal value at
a stated working precision together with a rigorous radius around it.
Each operation propagates its input radii conservatively and adds one
unit in the last place for its own rounding (decimal arithmetic is
correctly rounded, so one ulp is a safe overestimate).
Exact integer claims (the sandwich inequalities) are checked in integer
arithmetic, never through floats.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN

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


class HPReal(namedtuple("HPReal", "value error precision")):
    """A decimal approximation plus a rigorous radius |stored - true|."""

    __slots__ = ()

    @classmethod
    def exact(cls, x, precision: int) -> "HPReal":
        # Decimal(int) is quadratic in the size of the int
        value = _int_to_decimal(x) if isinstance(x, int) else Decimal(x)
        return cls(value, Decimal(0), precision)

    def _pair_ctx(self, other: "HPReal"):
        prec = min(self.precision, other.precision)
        return prec, _value_context(prec)

    def __add__(self, other: "HPReal") -> "HPReal":
        prec, ctx = self._pair_ctx(other)
        v = ctx.add(self.value, other.value)
        e = _UP.add(_UP.add(self.error, other.error), _ulp(prec, v))
        return HPReal(v, e, prec)

    def __sub__(self, other: "HPReal") -> "HPReal":
        return self + HPReal(other.value.copy_negate(), other.error,
                             other.precision)

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

    def sqrt(self) -> "HPReal":
        if self.value <= self.error:
            raise ValueError("argument not certified positive")
        v = _value_context(self.precision).sqrt(self.value)
        # |sqrt(x) - sqrt(a)| <= e / (2 sqrt(a - e)); decimal sqrt rounds
        # half-even in any context, so next_minus makes it a floor
        low = _DOWN.next_minus(_DOWN.sqrt(_DOWN.subtract(self.value, self.error)))
        prop = _UP.divide(self.error, _DOWN.multiply(2, low))
        e = _UP.add(prop, _ulp(self.precision, v))
        return HPReal(v, e, self.precision)

    def __abs__(self) -> "HPReal":
        return HPReal(abs(self.value), self.error, self.precision)

    def upper(self) -> Decimal:
        return _UP.add(self.value, self.error)

    def __str__(self):
        return f"{self.value} ± {self.error}"


class ConstantEstimate(namedtuple("ConstantEstimate",
                                  "C_value terms_used truncation_bound")):
    """Certified estimate of the growth constant.

    ``C_value`` is C_N = c(N)**(2**-N), N = ``terms_used``; its radius
    adds C_N times the relative tail ``truncation_bound``, so it covers C.
    """

    __slots__ = ()


def relative_tail(c: list) -> Decimal:
    """Rounded-up t = 4/(2**N c(N-1)), N = len(c) - 1: C <= C_N (1 + t)."""
    if len(c) < 4 or c[1] != 1:
        raise ValueError("need counts through index 3, with c(1) == 1")
    return _UP.divide(Decimal(4), _int_to_decimal(c[-2] << (len(c) - 1)))


def constant_C(c: list, digits: int) -> ConstantEstimate:
    """C_N = c(N)**(2**-N) by N square roots, N = len(c) - 1."""
    tail = relative_tail(c)
    N = len(c) - 1
    wp = digits + 10  # guard digits for the rounding of N + 1 steps
    start = _value_context(wp).plus(_int_to_decimal(c[N]))
    root = HPReal(start, _ulp(wp, start), wp)
    for _ in range(N):
        root = root.sqrt()
    radius = _UP.add(root.error, _UP.multiply(root.upper(), tail))
    return ConstantEstimate(HPReal(root.value, radius, wp), N,
                            HPReal(tail, Decimal(0), _UP.prec))


class SandwichReport:
    """Exact-integer margins for the squared-growth sandwich."""

    def __init__(self, entries: list):
        self.entries = entries  # dicts with n, lower_margin, upper_margin

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

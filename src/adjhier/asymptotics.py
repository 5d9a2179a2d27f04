"""Growth-constant extraction with certified error bounds.

The per-level counts satisfy c(n) ~ C**(2**n), and the partial constant
C_N = c(N)**(2**-N) is taken as N square roots (as c(1) = 1, the residual
series sum_{k=2..N} (ln c(k) - 2 ln c(k-1)) / 2**k telescopes to ln C_N).
The sandwich c(n-1)**2 <= c(n) <= c(n-1)**2 (1 + 4/c(n-2)) and Bernoulli's
inequality give C_N <= C <= C_N (1 + 4/(2**N c(N-1))): few levels, many digits.

The roots are taken twice in binary fixed point with :func:`math.isqrt`:
a floor pass from c(N) rounded down and a ceiling pass from c(N) rounded
up.  Square root is monotone, so the two passes enclose C_N with no error
propagation to derive.  The value is the lower end truncated to decimal;
the radius and the tail bound are rounded up to a dozen digits.
Exact integer claims (the sandwich inequalities) are checked in integer
arithmetic, never through floats.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Context, Decimal, MAX_PREC, MIN_EMIN, ROUND_CEILING
from math import isqrt

from .numstr import _int_to_decimal

# Bounds round outward (up); a dozen digits is plenty for bounds.
_UP = Context(prec=12, rounding=ROUND_CEILING, Emax=999999999, Emin=-999999999)

Ball = namedtuple("Ball", "value error")  # value and a rigorous radius


class ConstantEstimate(namedtuple("ConstantEstimate",
                                  "C_value terms_used truncation_bound")):
    """Certified estimate of the growth constant.

    ``C_value`` is a :class:`Ball` around C_N = c(N)**(2**-N),
    N = ``terms_used``; its radius adds C_N times the relative tail
    ``truncation_bound``, so it covers C.
    """

    __slots__ = ()


def relative_tail(c: list) -> Decimal:
    """Rounded-up t = 4/(2**N c(N-1)), N = len(c) - 1: C <= C_N (1 + t)."""
    if len(c) < 4 or c[1] != 1:
        raise ValueError("need counts through index 3, with c(1) == 1")
    return _UP.divide(Decimal(4), _int_to_decimal(c[-2] << (len(c) - 1)))


def _root_bounds(x: int, N: int, p: int) -> tuple:
    """Integers lo, hi, e with lo 2**e <= x**(2**-N) <= hi 2**e, x >= 1.

    Each step rescales to 2p or 2p + 1 bits, rounding lo down and hi up,
    with the exponent kept even, then takes a floor root of lo and a
    ceiling root of hi; both end within a few units of p-bit precision.
    """
    lo = hi = x
    e = 0
    for _ in range(N):
        s = lo.bit_length() - 2 * p
        s -= (e + s) & 1
        if s > 0:
            lo >>= s
            hi = -(-hi >> s)
        else:
            lo <<= -s
            hi <<= -s
        e = (e + s) >> 1
        lo = isqrt(lo)
        hi = isqrt(hi - 1) + 1
    return lo, hi, e


def constant_C(c: list, digits: int) -> ConstantEstimate:
    """C_N = c(N)**(2**-N) to digits + 10 digits, N = len(c) - 1."""
    tail = relative_tail(c)
    N = len(c) - 1
    u = digits + 9  # decimal places: 10 guard digits, as 1 <= C_N < 2
    # 10/3 bits a digit, 3 digits past 10**-u: the width is a few 10**-(u+3)
    lo, hi, e = _root_bounds(c[N], N, 10 * (u + 3) // 3)
    scale = 10 ** u
    exact = Context(prec=MAX_PREC, Emin=MIN_EMIN)
    value = exact.scaleb(_int_to_decimal(lo * scale >> -e), -u)
    # width (hi - lo) 2**e rounded up, plus the truncation 10**-u, in
    # units of 10**-(u + 12); then value + near >= hi 2**e >= C_N
    units = -(-(hi - lo) * scale * 10 ** 12 >> -e) + 10 ** 12
    near = exact.scaleb(Decimal(units), -u - 12)
    radius = _UP.add(near, _UP.multiply(_UP.add(value, near), tail))
    return ConstantEstimate(Ball(value, radius), N, tail)


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

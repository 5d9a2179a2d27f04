"""Decimal-string conversion for counts of any size.

CPython guards int<->str conversions beyond a few thousand digits, and
on 3.10/3.11 its conversions are quadratic in the digit count; deep
tables exceed the guard (a(22) alone has ~533k digits), so every count
the CLI prints is rendered by :func:`decimal_str` instead of ``str()``.
Neither function touches the interpreter-wide guard.

Render: values under the guard use ``str()``; larger values are split
at half their bit length and rebuilt as an exact :class:`decimal.Decimal`,
x = hi * 2**w + lo, whose string form is linear to produce.  libmpdec
multiplies large operands by a number-theoretic transform in
M(n) = O(n log n) for n digits, so the rebuild costs O(M(n) log n),
against the O(n**2) of repeated division by a power of ten.

Parse: the digit string is split in half, x = int(hi) * 10**len(lo) +
int(lo), down to pieces of at most ``_PARSE_LEAF_DIGITS``; with
Karatsuba multiplication of Python ints this is O(n**1.59) against the
O(n**2) of a left-to-right block loop.  Nothing in the package calls
:func:`parse_decimal` (the cache stores hex); it stays only because the
benchmark's tracing table (``perfbench/tracing.py``) names it, and
``tests/test_perfbench.py::test_every_traced_span_resolves`` requires
every name there to resolve.

Powers of two and ten are memoised within one call and dropped when it
returns.
"""

from decimal import Context, Decimal, Inexact, MAX_EMAX, MAX_PREC, MIN_EMIN

_LEAF_BITS = 4096  # rebuild pieces converted directly by Decimal(int)
_PARSE_LEAF_DIGITS = 512  # below the guard's smallest allowed setting


def _int_to_decimal(n: int) -> Decimal:
    """The exact Decimal of an int, subquadratic in its size."""
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                  traps=[Inexact])
    return _rebuild(n, n.bit_length(), ctx, {})


# The recursions are module-level functions, not closures: a closure that
# calls itself is a reference cycle, which would keep the memo alive
# after the call until the cyclic collector runs.

def _rebuild(x: int, bits: int, ctx: Context, pow2: dict) -> Decimal:
    if bits <= _LEAF_BITS:
        return Decimal(x)
    w = bits >> 1
    hi = x >> w
    lo = x - (hi << w)
    return ctx.add(
        ctx.multiply(_rebuild(hi, bits - w, ctx, pow2),
                     _power_of_two(w, ctx, pow2)),
        _rebuild(lo, w, ctx, pow2))


def _power_of_two(w: int, ctx: Context, pow2: dict) -> Decimal:
    p = pow2.get(w)
    if p is None:
        if w <= _LEAF_BITS:
            p = Decimal(1 << w)
        else:
            p = ctx.multiply(_power_of_two(w >> 1, ctx, pow2),
                             _power_of_two(w - (w >> 1), ctx, pow2))
        pow2[w] = p
    return p


def _parse_digits(s: str, start: int, stop: int, pow10: dict) -> int:
    if stop - start <= _PARSE_LEAF_DIGITS:
        return int(s[start:stop])
    w = (stop - start) >> 1
    mid = stop - w
    return (_parse_digits(s, start, mid, pow10) * _power_of_ten(w, pow10)
            + _parse_digits(s, mid, stop, pow10))


def _power_of_ten(w: int, pow10: dict) -> int:
    p = pow10.get(w)
    if p is None:
        if w <= _PARSE_LEAF_DIGITS:
            p = 10 ** w
        else:
            p = _power_of_ten(w >> 1, pow10) * _power_of_ten(w - (w >> 1), pow10)
        pow10[w] = p
    return p


def decimal_str(n: int) -> str:
    """str(n) for a nonnegative int, immune to the conversion guard."""
    if n < 0:
        raise ValueError("counts are nonnegative")
    try:
        return str(n)
    except ValueError:
        pass
    return str(_int_to_decimal(n))


def parse_decimal(s: str) -> int:
    """int(s) for a nonnegative decimal string of any length."""
    s = s.strip()
    if not s.isdigit():
        raise ValueError(f"not a nonnegative decimal string: {s[:40]!r}")
    try:
        return int(s)
    except ValueError:
        pass
    return _parse_digits(s, 0, len(s), {})

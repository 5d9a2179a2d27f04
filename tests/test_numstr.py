import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from adjhier import numstr
from adjhier.numstr import decimal_str, parse_decimal


def test_basics():
    assert decimal_str(0) == "0"
    assert decimal_str(12345) == "12345"
    assert parse_decimal("0012") == 12
    with pytest.raises(ValueError):
        decimal_str(-1)
    for bad in ("", "-3", "1.5", "1e5", "abc"):
        with pytest.raises(ValueError):
            parse_decimal(bad)


def test_beyond_interpreter_guard():
    n = 7 ** 12000  # ~10k digits
    s = decimal_str(n)
    assert len(s) > 4300
    assert parse_decimal(s) == n
    with pytest.raises(ValueError):
        str(n)  # the guard this module exists to sidestep


@given(st.integers(min_value=0, max_value=10 ** 200))
def test_roundtrip(n):
    assert parse_decimal(decimal_str(n)) == n


@given(st.integers(min_value=0, max_value=10 ** 60))
def test_agrees_with_builtin(n):
    assert decimal_str(n) == str(n)
    assert parse_decimal(str(n)) == n


# -- differential checks against the built-ins, beyond the guard -------------

needs_guard = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="interpreter has no int<->str conversion guard")


def _unguarded(convert, x):
    # the reference conversion; the guard is lifted for this call only
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(x)
    finally:
        sys.set_int_max_str_digits(old)


def _check(n, s):
    guard = sys.get_int_max_str_digits()
    assert decimal_str(n) == s
    assert parse_decimal(s) == n
    assert parse_decimal("0" * 777 + s) == n
    assert sys.get_int_max_str_digits() == guard


def _random_bits(rng, bits):
    return rng.getrandbits(bits) | (1 << (bits - 1))


@needs_guard
def test_differential_around_crossovers():
    # str() below the guard, the decimal rebuild above it; at 4 leaves
    # the rebuild's halves end exactly on its leaf size, one bit more
    # splits them once further
    rng = random.Random(2012)
    guard = sys.get_int_max_str_digits()
    values = [10 ** (guard - 1), 10 ** guard - 1, 10 ** guard]
    for b in (4 * numstr._LEAF_BITS, 4 * numstr._LEAF_BITS + 1):
        values += [_random_bits(rng, b), (1 << b) - 1, 1 << b]
    for n in values:
        _check(n, _unguarded(str, n))


@needs_guard
@pytest.mark.parametrize("k", [1, 20_000, 100_000])
def test_differential_powers_of_ten(k):
    for n in (10 ** k, 10 ** k - 1):
        s = _unguarded(str, n)
        assert s in ("1" + "0" * k, "9" * k)
        _check(n, s)


@needs_guard
def test_differential_half_million_digits():
    rng = random.Random(1309)
    s = str(rng.randint(1, 9)) + "".join(
        rng.choices("0123456789", k=500_000))
    _check(_unguarded(int, s), s)


def test_parse_leading_zeros():
    assert parse_decimal("0" * 10_000) == 0
    assert parse_decimal("0" * 9_000 + "12") == 12


def test_calls_keep_no_memory():
    # the per-call memo of powers must go when the call returns, not wait
    # for the cyclic collector
    n = 7 ** 200_000  # ~169k digits: the decimal rebuild and the split parse
    gc.disable()
    tracemalloc.start()
    try:
        s = decimal_str(n)
        m = parse_decimal(s)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert m == n
    assert kept - sys.getsizeof(s) - sys.getsizeof(m) < 16_384

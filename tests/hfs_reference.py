"""An engine-free reference for hereditarily finite sets.

Sets are nested ``frozenset``s and atoms are the strings ``"u1"``,
``"u2"``, ..., the names the engine prints for them.  Every level is
built from its defining equation, so the oracle's levels, orders and
ranks can be checked against a route that shares no code with them.
This module imports nothing from ``adjhier``.
"""

import functools
import math

EMPTY = frozenset()


def is_set(x):
    return isinstance(x, frozenset)


def rank(x):
    """0 for atoms and the empty set, else one more than the largest
    element rank."""
    return 1 + max(map(rank, x), default=-1) if is_set(x) else 0


def code(x):
    """Ackermann code of a pure set: the sum of 2**code(element)."""
    return sum(1 << code(e) for e in x)


@functools.lru_cache(maxsize=None)
def decode(n):
    """The pure set whose Ackermann code is n."""
    return frozenset(decode(i) for i in range(n.bit_length()) if n >> i & 1)


def levels(n_max, u=0, source=None):
    """Levels 0..n_max: level 0 is the empty set and u atoms, and level
    n+1 is level 0 plus x with y added, for every set x of level n and
    every y of level ``source(out, n)`` (``out`` the levels so far), or
    of level n when no source is given."""
    base = frozenset([EMPTY] + [f"u{i + 1}" for i in range(u)])
    out = [base]
    for n in range(n_max):
        ys = out[source(out, n) if source else n]
        out.append(base | {x | {y} for x in out[n] if is_set(x) for y in ys})
    return out


def bounded(f):
    """The source of the hierarchy bounded by f: level f(n)."""
    return lambda out, n: f(n)


BOUNDS = {"sqrt": math.isqrt, "log2": lambda n: (n + 1).bit_length() - 1}


def minbounded(out, n):
    """One past the largest m <= n whose power set level n holds, else 0."""
    return next((m + 1 for m in range(n, -1, -1)
                 if sum(x <= out[m] for x in out[n]) == 1 << len(out[m])), 0)


def power_levels(n_max):
    """V_0 = {} and V_{n+1} = the power set of V_n."""
    out = [EMPTY]
    for _ in range(n_max):
        subsets = [EMPTY]
        for e in out[-1]:
            subsets += [s | {e} for s in subsets]
        out.append(frozenset(subsets))
    return out


def read(text):
    """The set or atom a notation such as ``{u1,{},{{}}}`` names."""
    value, end = _read_at(text, 0)
    if end != len(text):
        raise ValueError(f"trailing input at offset {end}")
    return value


def _read_at(text, pos):
    if text[pos] == "u":
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        return text[pos:end], end
    assert text[pos] == "{", pos
    elems, pos = [], pos + 1
    while text[pos] != "}":
        e, pos = _read_at(text, pos)
        elems.append(e)
        pos += text[pos] == ","
    return frozenset(elems), pos + 1

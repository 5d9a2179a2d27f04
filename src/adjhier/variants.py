"""Hierarchy variant descriptors and bound functions, shared by the table
and oracle modules."""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BoundFunctionError

KINDS = ("plain", "atoms", "bounded", "minbounded")
BUILTIN_BOUNDS = ("identity", "half", "sqrt", "log2")


class BoundFunction(namedtuple("BoundFunction", "kind values")):
    """A level bound: one of the built-ins or an explicit value table.

    Built-ins: identity n, half = ceil(n/2), sqrt = isqrt(n), log2 =
    floor(log2(n+1)); all evaluated in exact integer arithmetic.  Table
    functions are validated for sublinearity (f(n) <= n) up front; their
    unboundedness can only be observed on queries, so running off the
    end of the table raises :class:`BoundFunctionError`.
    """

    __slots__ = ()

    def __new__(cls, kind: str, values: tuple = ()):
        if kind == "table":
            values = tuple(int(v) for v in values)
            for i, v in enumerate(values):
                if v > i:
                    raise BoundFunctionError(
                        f"not sublinear: f({i}) = {v} > {i}")
                if v < 0:
                    raise BoundFunctionError(f"negative value at index {i}")
                # a dip would let later levels lose members, breaking the
                # nesting the count recurrence relies on
                if i and v < values[i - 1]:
                    raise BoundFunctionError(
                        f"not monotone: f({i}) = {v} < f({i - 1}) = "
                        f"{values[i - 1]}")
        elif kind not in BUILTIN_BOUNDS:
            raise BoundFunctionError(f"unknown bound function {kind!r}")
        return super().__new__(cls, kind, values)

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("bound functions take natural arguments")
        if self.kind == "identity":
            return n
        if self.kind == "half":
            return (n + 1) // 2
        if self.kind == "sqrt":
            return math.isqrt(n)
        if self.kind == "log2":
            return (n + 1).bit_length() - 1
        if n >= len(self.values):
            raise BoundFunctionError(
                f"table bound function has no value at {n} "
                f"(provided range 0..{len(self.values) - 1})")
        return self.values[n]

    def descriptor(self):
        if self.kind == "table":
            return {"kind": "table", "values": [str(v) for v in self.values]}
        return self.kind

    @classmethod
    def from_descriptor(cls, d) -> "BoundFunction":
        if isinstance(d, str):
            return cls(d)
        return cls("table", tuple(int(v) for v in d["values"]))

    def __str__(self):
        if self.kind == "table":
            return f"table[{len(self.values)}]"
        return self.kind


class HierarchySpec(namedtuple("HierarchySpec", "kind u f")):
    """Which hierarchy a level set or count table describes."""

    __slots__ = ()

    def __new__(cls, kind: str, u: int = 0, f: BoundFunction | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown hierarchy kind {kind!r}")
        if kind == "atoms" and u < 0:
            raise ValueError("atom count must be nonnegative")
        if kind == "bounded" and f is None:
            raise ValueError("bounded hierarchies need a bound function")
        return super().__new__(cls, kind, u, f)

    @classmethod
    def plain(cls) -> "HierarchySpec":
        return cls("plain")

    @classmethod
    def atoms(cls, u: int) -> "HierarchySpec":
        return cls("atoms", u=u)

    @classmethod
    def bounded(cls, f: BoundFunction) -> "HierarchySpec":
        return cls("bounded", f=f)

    @classmethod
    def min_bounded(cls) -> "HierarchySpec":
        return cls("minbounded")

    def descriptor(self) -> dict:
        """JSON-able description; inverse of :meth:`from_descriptor`."""
        d = {"kind": self.kind}
        if self.kind == "atoms":
            d["u"] = str(self.u)
        if self.kind == "bounded":
            d["f"] = self.f.descriptor()
        return d

    @classmethod
    def from_descriptor(cls, d: dict) -> "HierarchySpec":
        kind = d.get("kind")
        if kind == "atoms":
            return cls.atoms(int(d["u"]))
        if kind == "bounded":
            return cls.bounded(BoundFunction.from_descriptor(d["f"]))
        return cls(kind)

    def __str__(self):
        if self.kind == "atoms":
            return f"atoms(u={self.u})"
        if self.kind == "bounded":
            return f"bounded(f={self.f})"
        return self.kind

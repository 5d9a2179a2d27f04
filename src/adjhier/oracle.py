"""Brute-force construction of hierarchy levels as explicit set collections.

Each level is built by literally applying its defining equation over the
interned universe of a dedicated :class:`~adjhier.hfs.SetEngine`, and is
stored as a dense bitset over ids, so membership and subset tests are
integer bit operations.  The resulting ground-truth counts are what the
recurrence modules are checked against at small depth.

Depth defaults keep the full suite fast; they are configuration, not
constants (pass ``depth_cap``/``level_size_cap`` to override).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ResourceCapError
from .hfs import SetEngine
from .variants import HierarchySpec

DEFAULT_DEPTH_CAPS = {
    "plain": 5,
    "minbounded": 5,
    "atoms": 4,
    "cumulative": 5,
    "bounded": None,  # guarded by level size instead
}
DEFAULT_LEVEL_SIZE_CAP = 200_000


def iter_bits(v: int):
    """Indices of set bits, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


@dataclass
class LevelSets:
    """Materialized levels of one hierarchy."""

    spec: HierarchySpec
    engine: SetEngine
    levels: list = field(repr=False)  # bitsets over engine ids
    atom_ids: tuple = ()

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def size(self, n: int) -> int:
        return self.levels[n].bit_count()

    def sizes(self) -> list:
        return [lv.bit_count() for lv in self.levels]

    def members(self, n: int) -> list:
        return list(iter_bits(self.levels[n]))

    def contains(self, n: int, sid: int) -> bool:
        return bool(self.levels[n] >> sid & 1)

    def new_members(self, n: int) -> list:
        """Members of level n absent from level n-1."""
        prev = self.levels[n - 1] if n >= 1 else 0
        return list(iter_bits(self.levels[n] & ~prev))

    def held(self, ids, m: int) -> int:
        """How many of ``ids`` have all their elements in level m."""
        lv = self.levels[m]
        elements_of = self.engine.elements_of
        return sum(all(lv >> e & 1 for e in elements_of(sid)) for sid in ids)


def _check_depth(kind: str, n_max: int, depth_cap):
    cap = DEFAULT_DEPTH_CAPS[kind] if depth_cap is None else depth_cap
    if cap is not None and n_max > cap:
        raise ResourceCapError(
            f"{kind} oracle depth {n_max} exceeds cap {cap}",
            level=n_max, cap=cap)


def build_levels(spec: HierarchySpec, n_max: int, *,
                 depth_cap=None, level_size_cap=DEFAULT_LEVEL_SIZE_CAP) -> LevelSets:
    """Materialize levels 0..n_max of the given adjunctive variant.

    Level n+1 is the base level (the empty set and the atoms) plus every
    x with y adjoined, for x a non-atom of level n and y a member of the
    variant's source level (see :func:`_source`).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if spec.kind not in ("plain", "atoms", "bounded", "minbounded"):
        raise ValueError(f"build_levels does not handle {spec.kind!r}")
    # the default depth keeps the pair loop affordable; many atoms
    # inflate the levels, so the default tightens past u = 3
    if spec.kind == "atoms" and depth_cap is None and spec.u > 3:
        depth_cap = 3
    _check_depth(spec.kind, n_max, depth_cap)
    u = spec.u
    eng = SetEngine(n_atoms=u)
    base = (1 << u + 1) - 1  # atoms are ids 0..u-1, the empty set is id u
    ls = LevelSets(spec, eng, [base], tuple(range(u)))
    for n in range(n_max):
        xs = ls.members(n)[u:]  # the atoms lead every level
        ys = ls.members(_source(ls, n))
        bound = u + 1 + len(xs) * len(ys)
        if level_size_cap is not None and bound > level_size_cap:
            raise ResourceCapError(
                f"{spec.kind} oracle level {n + 1} may hold {bound} sets "
                f"(cap {level_size_cap})", level=n + 1, cap=level_size_cap)
        nxt = base
        for x in xs:
            for y in ys:
                nxt |= 1 << eng.adjoin_ids(x, y)
        ls.levels.append(nxt)
    return ls


def _source(ls: LevelSets, n: int) -> int:
    """The level whose members are adjoined to level n's: n itself, f(n)
    when bounded, and when minimally bounded one past the largest m <= n
    whose power set level n holds (0 when none)."""
    if ls.spec.kind == "bounded":
        return ls.spec.f(n)
    if ls.spec.kind == "minbounded":
        members = ls.members(n)
        return next((m + 1 for m in range(n, -1, -1)
                     if ls.held(members, m) == 1 << ls.size(m)), 0)
    return n


def build_cumulative(n_max: int, *, depth_cap=None) -> LevelSets:
    """Iterated power-set levels; level 0 is empty, level n+1 = P(level n)."""
    _check_depth("cumulative", n_max, depth_cap)
    eng = SetEngine()
    levels = [0]
    for _ in range(n_max):
        mem = eng.sort_ids(iter_bits(levels[-1]))
        nxt = 0
        for mask in range(1 << len(mem)):
            picked = tuple(mem[i] for i in iter_bits(mask))
            nxt |= 1 << eng.intern_sorted_ids(picked)
        levels.append(nxt)
    return LevelSets(HierarchySpec.cumulative(), eng, levels)


def partition_counts(ls: LevelSets, n: int, m: int) -> int:
    """Members new at level n whose elements all lie in level m."""
    if not 0 <= m < n <= ls.depth:
        raise IndexError(f"partition ({n}, {m}) outside computed levels")
    return ls.held(ls.new_members(n), m)


def partition_split(ls: LevelSets, n: int, m: int) -> dict:
    """The same count split by k = #elements that are new at level m."""
    if not 0 <= m < n <= ls.depth:
        raise IndexError(f"partition ({n}, {m}) outside computed levels")
    lv_m = ls.levels[m]
    ring = lv_m & ~(ls.levels[m - 1] if m >= 1 else 0)
    eng = ls.engine
    split = {}
    for sid in ls.new_members(n):
        elems = eng.elements_of(sid)
        if all(lv_m >> e & 1 for e in elems):
            k = sum(1 for e in elems if ring >> e & 1)
            split[k] = split.get(k, 0) + 1
    return split


def profile_counts(ls: LevelSets, n: int, by: str) -> dict:
    """Histogram of level n members by rank or cardinality.

    Atoms count as rank 0 and cardinality 0; pure variants are the ones
    cross-checked against the refined recurrences.
    """
    if not 0 <= n <= ls.depth:
        raise IndexError(f"level {n} beyond computed depth {ls.depth}")
    eng = ls.engine
    if by == "rank":
        key = eng.rank_id
    elif by == "cardinality":
        key = eng.cardinality_id
    else:
        raise ValueError("profile axis must be 'rank' or 'cardinality'")
    hist = {}
    for sid in ls.members(n):
        t = key(sid)
        hist[t] = hist.get(t, 0) + 1
    return dict(sorted(hist.items()))


@dataclass
class ArkReport:
    """Outcome of checking recursive adjunctive rank against level membership."""

    total: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self):
        return f"ark lemma {self.total - len(self.mismatches)}/{self.total}"


def verify_ark_lemma(ls: LevelSets) -> ArkReport:
    """Every deepest-level member: first level containing it == its ark."""
    if ls.spec.kind != "plain":
        raise ValueError("ark verification is defined on the plain hierarchy")
    eng = ls.engine
    deepest = ls.depth
    mismatches = []
    total = 0
    for sid in ls.members(deepest):
        total += 1
        by_levels = next(n for n in range(deepest + 1) if ls.contains(n, sid))
        by_formula = eng.ark_id(sid)
        if by_levels != by_formula:
            mismatches.append((eng.format_id(sid), by_levels, by_formula))
    return ArkReport(total, mismatches)


def level_lines(ls: LevelSets, n: int) -> list:
    """Members of level n in canonical order, one notation per line."""
    eng = ls.engine
    return [eng.format_id(sid) for sid in eng.sort_ids(ls.members(n))]


def summary(ls: LevelSets, checks=None) -> dict:
    return {
        "spec": ls.spec.descriptor(),
        "sizes": [str(s) for s in ls.sizes()],
        "checks": checks or [],
    }

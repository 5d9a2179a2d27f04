"""Brute-force construction of hierarchy levels as explicit set collections.

Each level is built by literally applying its defining equation over the
interned universe of a dedicated :class:`~adjhier.hfs.SetEngine`, and is
stored as a dense bitset over ids.  The engine adjoins a whole level in
one batched pass (:meth:`~adjhier.hfs.SetEngine.adjoin_level`), whose ids
are consumed as they are made.  A level is assembled in one linear
pass: the sets its loop interns are a range of fresh ids, and only the
ids found again below that range are marked, in a byte array, so no big
int is built per pair.  Each level is read through one
decoded view, a bit string, so walks are linear in its size and
membership tests take constant time; subset counts read a table of the
levels that hold each element.  The resulting ground-truth counts are
what the recurrence modules are checked against at small depth.

Every variant has one limit: a level that may hold more than
:data:`DEFAULT_LEVEL_SIZE_CAP` sets is refused before it is built, level
0 (the empty set and the atoms) included.  The bound is |base| +
|non-atoms of level n| * |source level| for the adjunction levels and
2**|level n| for the cumulative hierarchy, so the refused level costs
no pair loop and no interning.
"""

from __future__ import annotations

from .errors import ResourceCapError
from .hfs import SetEngine
from .variants import HierarchySpec

DEFAULT_LEVEL_SIZE_CAP = 200_000


def iter_bits(v: int):
    """Indices of set bits, ascending."""
    return _ones(_bit_string(v))


def _bit_string(v: int) -> str:
    """``v`` in binary, lowest bit first: character i is "1" iff bit i is
    set.  One linear conversion; reading it copies no big int."""
    return format(v, "b")[::-1]


def _ones(view: str):
    i = view.find("1")
    while i >= 0:
        yield i
        i = view.find("1", i + 1)


class LevelSets:
    """Materialized levels of one hierarchy.

    Levels are append-only: a level, once stored, never changes, so its
    decoded view is computed once.  The per-element level masks that
    :meth:`held` and the partition counts read depend on how many levels
    exist, and are rebuilt when that number changes.
    """

    def __init__(self, spec: HierarchySpec, engine: SetEngine, levels: list,
                 atom_ids: tuple = ()):
        self.spec, self.engine, self.atom_ids = spec, engine, atom_ids
        self.levels = levels  # bitsets over engine ids
        self._views = []
        # (len(levels), element masks, new-member tallies and k-splits by
        # level)
        self._index = (-1, None, None, None)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def size(self, n: int) -> int:
        return self.levels[n].bit_count()

    def sizes(self) -> list:
        return [lv.bit_count() for lv in self.levels]

    def members(self, n: int) -> list:
        return list(_ones(self._view(n)))

    def contains(self, n: int, sid: int) -> bool:
        view = self._view(n)
        return 0 <= sid < len(view) and view[sid] == "1"

    def new_members(self, n: int) -> list:
        """Members of level n absent from level n-1."""
        return list(self._new_ids(n))

    def held(self, ids, m: int) -> int:
        """How many of ``ids`` have all their elements in level m.

        The ids are members of the computed levels (their elements lie
        below the top level); atoms have no elements and are refused.
        """
        return _count_with(self._tally(ids), m)

    def _new_ids(self, n: int):
        prev = self.levels[n - 1] if n >= 1 else 0
        return iter_bits(self.levels[n] & ~prev)

    def _view(self, n: int) -> str:
        views = self._views
        while len(views) <= n:
            views.append(_bit_string(self.levels[len(views)]))
        return views[n]

    def _element_masks(self) -> list:
        """For each id of the levels below the top, the bitmask of the
        levels that hold it.  Every element of a member lies below the
        top: a member is built from lower levels' members only."""
        key, masks = self._index[:2]
        if key != len(self.levels):
            bound = max((len(self._view(m)) for m in range(self.depth)),
                        default=0)
            masks = [0] * bound
            for m in range(len(self.levels)):
                bit = 1 << m
                for e in _ones(self._view(m)[:bound]):
                    masks[e] |= bit
            self._index = (len(self.levels), masks, {}, {})
        return masks

    def _tally(self, ids) -> dict:
        """Histogram over ``ids`` of the mask of levels that hold all of a
        set's elements (the AND of its elements' masks)."""
        masks = self._element_masks()
        every = (1 << len(self.levels)) - 1
        elements_of = self.engine.elements_of
        hist = {}
        for sid in ids:
            acc = every
            for e in elements_of(sid):
                acc &= masks[e]
            hist[acc] = hist.get(acc, 0) + 1
        return hist

    def _new_tally(self, n: int) -> dict:
        """:meth:`_tally` of level n's new members, computed once."""
        self._element_masks()  # drops the tallies made over fewer levels
        tallies = self._index[2]
        if n not in tallies:
            tallies[n] = self._tally(self._new_ids(n))
        return tallies[n]

    def _new_splits(self, n: int) -> list:
        """:func:`partition_split` of level n for every m < n, from one
        walk over its new members, computed once.

        Each member maps to its elements' level masks, sorted; the
        elements new at level m are those with bit m set and bit m-1
        clear (``s & ~(s << 1)``)."""
        masks = self._element_masks()
        splits = self._index[3]
        if n not in splits:
            elements_of = self.engine.elements_of
            hist = {}
            for sid in self._new_ids(n):
                key = tuple(sorted([masks[e] for e in elements_of(sid)]))
                hist[key] = hist.get(key, 0) + 1
            by_m = [{} for _ in range(n)]
            for key, c in hist.items():
                held = (1 << n) - 1
                for s in key:
                    held &= s
                new_at = [s & ~(s << 1) for s in key]
                for m in _ones(_bit_string(held)):
                    k = sum(b >> m & 1 for b in new_at)
                    by_m[m][k] = by_m[m].get(k, 0) + c
            splits[n] = by_m
        return splits[n]


def _count_with(hist: dict, m: int) -> int:
    """Sets in a tally whose elements all lie in level m."""
    return sum(c for mask, c in hist.items() if mask >> m & 1)


def _check_size(kind: str, level: int, bound: int, shown=None):
    """Refuse a level that may hold more than :data:`DEFAULT_LEVEL_SIZE_CAP`
    sets.  ``shown`` is the bound as printed, when its digits would be too
    many."""
    cap = DEFAULT_LEVEL_SIZE_CAP
    if bound > cap:
        raise ResourceCapError(
            f"{kind} oracle level {level} may hold {shown or bound} sets "
            f"(cap {cap})", level=level, cap=cap)


def build_levels(spec: HierarchySpec, n_max: int) -> LevelSets:
    """Materialize levels 0..n_max of the given adjunctive variant.

    Level n+1 is the base level (the empty set and the atoms) plus every
    x with y adjoined, for x a non-atom of level n and y a member of the
    variant's source level (see :func:`_source`).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if spec.kind not in ("plain", "atoms", "bounded", "minbounded"):
        raise ValueError(f"build_levels does not handle {spec.kind!r}")
    u = spec.u
    _check_size(spec.kind, 0, u + 1)
    eng = SetEngine(n_atoms=u)
    base = (1 << u + 1) - 1  # atoms are ids 0..u-1, the empty set is id u
    ls = LevelSets(spec, eng, [base], tuple(range(u)))
    for n in range(n_max):
        xs = ls.members(n)[u:]  # the atoms lead every level
        ys = ls.members(_source(ls, n))
        _check_size(spec.kind, n + 1, u + 1 + len(xs) * len(ys))
        ls.levels.append(_assemble(eng, base, eng.adjoin_level(xs, ys)))
    return ls


def _assemble(eng: SetEngine, base: int, ids) -> int:
    """The bitset of ``base`` and the ids an iterator yields, in one
    linear pass.

    Every set interned while ``ids`` is consumed is one of its ids, so
    the ids at or above the engine's size before the first one form a
    single range; only the ids found again below that mark are recorded,
    one bit each in a byte array.  No big int is built per id.
    """
    mark = eng.size
    found = bytearray((mark + 7) >> 3)
    for sid in ids:
        if sid < mark:
            found[sid >> 3] |= 1 << (sid & 7)
    fresh = (1 << eng.size) - (1 << mark)
    return base | fresh | int.from_bytes(found, "little")


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


def build_cumulative(n_max: int) -> LevelSets:
    """Iterated power-set levels; level 0 is empty, level n+1 = P(level n)."""
    eng = SetEngine()
    levels = [0]
    for n in range(n_max):
        mem = eng.sort_ids(iter_bits(levels[-1]))
        _check_size("cumulative", n + 1, 1 << len(mem), f"2**{len(mem)}")
        subsets = [()]  # each ascending, in binary counting order of mem
        for e in mem:
            subsets += [s + (e,) for s in subsets]
        levels.append(_assemble(eng, 0, map(eng.intern_sorted_ids, subsets)))
    return LevelSets(HierarchySpec.cumulative(), eng, levels)


def partition_counts(ls: LevelSets, n: int, m: int) -> int:
    """Members new at level n whose elements all lie in level m.

    One pass over level n's new members tallies, for every m at once,
    the levels that hold all of a member's elements."""
    if not 0 <= m < n <= ls.depth:
        raise IndexError(f"partition ({n}, {m}) outside computed levels")
    return _count_with(ls._new_tally(n), m)


def partition_split(ls: LevelSets, n: int, m: int) -> dict:
    """The same count split by k = #elements that are new at level m.

    Read from one tally of level n's new members that serves every m."""
    if not 0 <= m < n <= ls.depth:
        raise IndexError(f"partition ({n}, {m}) outside computed levels")
    return dict(ls._new_splits(n)[m])


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


class ArkReport:
    """Outcome of checking recursive adjunctive rank against level membership."""

    def __init__(self, total: int, mismatches: list):
        self.total, self.mismatches = total, mismatches

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
    masks = ls._element_masks()  # ids beyond it are new at the deepest level
    mismatches = []
    total = 0
    for sid in ls.members(deepest):
        total += 1
        first = masks[sid] if sid < len(masks) else 1 << deepest
        by_levels = (first & -first).bit_length() - 1
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

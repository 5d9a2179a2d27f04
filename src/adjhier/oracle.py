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
levels that hold each element.  Every count of a level is read off one
tally of its sets, keyed by the sorted tuple of their elements' level
masks (:meth:`LevelSets._tally`): the subset counts b(n, m), their
splits by the number k of elements new at level m, and the sets of a
level held by a lower one.  The resulting ground-truth counts are what
the recurrence modules are checked against at small depth.

Level sizes grow doubly exponentially, so the deepest level dwarfs the
others, and no level is built from it.  It is not interned: one walk
over its pairs (x, y) counts each of its sets once, from the pair with
the largest y that makes it (canonical augmentation; see
:func:`_fold`), and tallies what the verifiers read: its size and the
tallies of its new members and of all its members, so its partition
counts, its k-splits and :meth:`LevelSets.level_held` need no ids; for
plain also each set's rank, cardinality and ark, so its profiles and the
ark lemma need none either.  Only :meth:`LevelSets.members`, which
``--dump`` reads, interns it, as the levels below were.

Every variant has one limit: a level that may hold more than
:data:`DEFAULT_LEVEL_SIZE_CAP` sets is refused before it is built, level
0 (the empty set and the atoms) included.  The bound is |base| +
|non-atoms of level n| * |source level|, so the refused level costs no
pair loop and no interning.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import ResourceCapError
from .hfs import SetEngine, ark_of
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
    """Levels of one hierarchy, each a bitset over engine ids.

    Levels are append-only: a level, once stored, never changes, so its
    decoded view is computed once.  The per-element level masks, and the
    tallies read off them, depend on how many levels are stored, and are
    rebuilt when that number changes.

    The deepest level that :func:`build_levels` makes is left folded: its
    size, its two tallies and, for plain, its shape tally are read off one
    walk over its pairs as it is built (see :func:`_fold`), and its sets
    are interned only when a read needs their ids (:attr:`levels`,
    :meth:`members`, and :meth:`level_held` at a level not yet stored).
    """

    def __init__(self, spec: HierarchySpec, engine: SetEngine, levels: list,
                 atom_ids: tuple = ()):
        self.spec, self.engine, self.atom_ids = spec, engine, atom_ids
        self._levels = levels  # bitsets over engine ids
        # sources[n]: the level whose members build_levels adjoined to
        # level n's to make level n + 1 (see _source)
        self.sources = []
        # (xs, ys) of a folded deepest level, and its fold
        self._pairs = self._fold = None
        self._views = []
        # (len(levels), element masks, what _read keeps over them)
        self._index = (-1, None, None)

    @property
    def levels(self) -> list:
        """The levels as bitsets; a folded deepest level is interned
        first."""
        self._intern_top()
        return self._levels

    @property
    def depth(self) -> int:
        return len(self._levels) - (self._pairs is None)

    def size(self, n: int) -> int:
        if self._folded(n):
            return self._fold.size
        return self._levels[n].bit_count()

    def sizes(self) -> list:
        return [self.size(n) for n in range(self.depth + 1)]

    def members(self, n: int) -> list:
        return list(_ones(self._view(n)))

    def level_held(self, n: int, m: int) -> int:
        """How many sets of level n, atoms aside, have all their elements
        in level m."""
        if self._folded(n) and m < n:
            return _count_with(self._fold.held, m)
        if m >= len(self._levels):
            self._intern_top()  # bit m of the masks needs level m
        return _count_with(self._read(("held", n), lambda: self._tally(
            self.members(n)[len(self.atom_ids):])), m)

    def _fold_top(self, xs: list, ys: list):
        """Leave the next level, every x of ``xs`` with each y of ``ys``
        adjoined, folded (see :func:`_fold`)."""
        self._pairs = (xs, ys)
        self._fold = _fold(self, xs, ys)

    def _intern_top(self):
        """Intern a folded deepest level and store it like the others."""
        if self._pairs is not None:
            xs, ys = self._pairs
            self._pairs = self._fold = None
            eng = self.engine
            self._levels.append(
                _assemble(eng, self._levels[0], eng.adjoin_level(xs, ys)))

    def _folded(self, n: int) -> bool:
        return self._pairs is not None and n == len(self._levels)

    def _shaped(self, n: int):
        """The fold of level n if it is folded with a shape tally (plain),
        else None."""
        if self._folded(n) and self._fold.shapes is not None:
            return self._fold
        return None

    def _level(self, n: int) -> int:
        return (self._levels if n < len(self._levels) else self.levels)[n]

    def _new_ids(self, n: int):
        prev = self._level(n - 1) if n >= 1 else 0
        return iter_bits(self._level(n) & ~prev)

    def _view(self, n: int) -> str:
        views = self._views
        while len(views) <= n:
            views.append(_bit_string(self._level(len(views))))
        return views[n]

    def _element_masks(self) -> list:
        """For each id of the stored levels, the bitmask of the stored
        levels that hold it: every element of a member, and every y that
        :func:`_fold` adjoins, is one of them."""
        key, masks = self._index[:2]
        if key != len(self._levels):
            masks = [0] * max(len(self._view(m))
                              for m in range(len(self._levels)))
            for m in range(len(self._levels)):
                bit = 1 << m
                for e in _ones(self._view(m)):
                    masks[e] |= bit
            self._index = (len(self._levels), masks, {})
        return masks

    def _read(self, key, make):
        """``make()``, computed once and kept until a level is stored."""
        self._element_masks()  # drops what was read over fewer levels
        kept = self._index[2]
        if key not in kept:
            kept[key] = make()
        return kept[key]

    def _tally(self, ids) -> dict:
        """Histogram over ``ids`` of the sorted tuple of a set's elements'
        masks (see :meth:`_element_masks`)."""
        masks = self._element_masks()
        elements_of = self.engine.elements_of
        hist = {}
        for sid in ids:
            key = tuple(sorted([masks[e] for e in elements_of(sid)]))
            hist[key] = hist.get(key, 0) + 1
        return hist

    def _new_tally(self, n: int) -> dict:
        """:meth:`_tally` of level n's new members."""
        if self._folded(n):
            return self._fold.new
        return self._read(("new", n), lambda: self._tally(self._new_ids(n)))

    def _new_splits(self, n: int) -> list:
        """:func:`partition_split` of level n for every m < n, read off
        :meth:`_new_tally` once: the elements new at level m are those
        with bit m set and bit m-1 clear (``s & ~(s << 1)``)."""
        return self._read(("splits", n),
                          lambda: _splits(self._new_tally(n), n))


def _count_with(hist: dict, m: int) -> int:
    """Sets in a tally whose elements all lie in level m."""
    return sum(c for key, c in hist.items() if all(s >> m & 1 for s in key))


def _splits(hist: dict, n: int) -> list:
    """For every m < n, the sets in a tally whose elements all lie in
    level m, counted by how many of their elements are new at level m."""
    by_m = [{} for _ in range(n)]
    for key, c in hist.items():
        held = (1 << n) - 1
        for s in key:
            held &= s
        new_at = [s & ~(s << 1) for s in key]
        for m in _ones(_bit_string(held)):
            k = sum(b >> m & 1 for b in new_at)
            by_m[m][k] = by_m[m].get(k, 0) + c
    return by_m


def _check_size(kind: str, level: int, bound: int):
    """Refuse a level that may hold more than :data:`DEFAULT_LEVEL_SIZE_CAP`
    sets."""
    cap = DEFAULT_LEVEL_SIZE_CAP
    if bound > cap:
        raise ResourceCapError(
            f"{kind} oracle level {level} may hold {bound} sets (cap {cap})",
            level=level, cap=cap)


def build_levels(spec: HierarchySpec, n_max: int) -> LevelSets:
    """Levels 0..n_max of the given adjunctive variant.

    Level n+1 is the base level (the empty set and the atoms) plus every
    x with y adjoined, for x a non-atom of level n and y a member of the
    variant's source level (see :func:`_source`).  Levels below n_max are
    interned; level n_max is left folded (see :class:`LevelSets`).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    u = spec.u
    _check_size(spec.kind, 0, u + 1)
    eng = SetEngine(n_atoms=u)
    base = (1 << u + 1) - 1  # atoms are ids 0..u-1, the empty set is id u
    ls = LevelSets(spec, eng, [base], tuple(range(u)))
    for n in range(n_max):
        xs = ls.members(n)[u:]  # the atoms lead every level
        ls.sources.append(_source(ls, n))
        ys = ls.members(ls.sources[n])
        _check_size(spec.kind, n + 1, u + 1 + len(xs) * len(ys))
        if n + 1 < n_max:
            ls.levels.append(_assemble(eng, base, eng.adjoin_level(xs, ys)))
        else:
            ls._fold_top(xs, ys)
    return ls


# a level read off its pairs: its size, LevelSets._tally of its new
# members and of all its members but the atoms, over the levels below it,
# and the bitset of its members already interned; for plain also the
# (rank, cardinality, ark) tally of the others, and those whose ark is
# not the level, as (sorted element ids, ark)
_Fold = namedtuple("_Fold", "size new held old shapes strays")


def _fold(ls: LevelSets, xs: list, ys: list) -> _Fold:
    """The level after the stored ones: level 0 plus every x of ``xs``
    with each y of ``ys`` adjoined, counted in one walk over its pairs
    without interning it.

    A set S = x with y adjoined, y not in x, comes from the pair
    (S - {w}, w) for every w in S that is a y and leaves an x; only the
    pair with the largest such w, by id, counts it (canonical
    augmentation; McKay, J. Algorithms 26, 1998).  So (x, y) is skipped
    when some z > y in x, z a y, has (x - {z}) with y added among the
    xs.  Those y form a small set per x, read off G[R] = {w a y : R with
    w added is an x} over the one-element deletions R of the xs.  A pair
    that is not skipped and names an old id, a set already interned or x
    itself when y is in x, marks it as :func:`_assemble` does; x is
    marked through its largest element that is a y, which no z exceeds.
    No nesting of levels is assumed.

    For plain, each set no id names is also tallied by its rank, its
    cardinality and its ark (see :func:`_shapes`).  It is in no stored
    level, so the ark lemma holds for it when its ark is this level.
    """
    eng = ls.engine
    masks = ls._element_masks()
    elements_of = eng.elements_of
    is_y = set(ys)
    grows = {}  # G[R], R a deletion of an x
    for x in xs:
        ex = elements_of(x)
        for i, w in enumerate(ex):
            if w in is_y:
                grows.setdefault(ex[:i] + ex[i + 1:], []).append(w)
    found = bytearray((eng.size + 7) >> 3)
    ykeys = [masks[y] for y in ys]
    shapes, strays, level = None, [], len(ls._levels)
    if ls.spec.kind == "plain":
        shapes = Counter()
        # y's key also holds what S's rank and ark read of y
        ykeys = [(s, eng.rank_id(y) + 1, eng.ark_id(y))
                 for y, s in zip(ys, ykeys)]
    pairs = {}  # (x's key, y's mask): the sets no id names yet
    for x, row in zip(xs, eng.probe_level(xs, ys)):
        ex = elements_of(x)
        bad = set()
        for i, z in enumerate(ex):
            if z in is_y:
                bad.update(w for w in grows.get(ex[:i] + ex[i + 1:], ())
                           if w < z)
        by_y = {}  # y's key: the pairs of this x
        for y, s, sid in zip(ys, ykeys, row):
            if y in bad:
                continue
            if sid is None:
                by_y[s] = by_y.get(s, 0) + 1
            else:
                found[sid >> 3] |= 1 << (sid & 7)
        if shapes is not None:
            by_y, odd = _shapes(eng, x, by_y, level, shapes)
            if odd:
                strays += [(tuple(eng.sort_ids(ex + (y,))), odd[k])
                           for y, k, sid in zip(ys, ykeys, row)
                           if k in odd and sid is None and y not in bad]
        key = tuple(sorted([masks[z] for z in ex]))
        for s, c in by_y.items():
            pairs[key, s] = pairs.get((key, s), 0) + c
    fresh = Counter()  # their tally, as LevelSets._tally keys it
    for (key, s), c in pairs.items():
        fresh[tuple(sorted(key + (s,)))] += c
    old = ls._levels[0] | int.from_bytes(found, "little")
    atoms = (1 << len(ls.atom_ids)) - 1
    new = fresh + Counter(ls._tally(iter_bits(old & ~ls._levels[-1])))
    held = fresh + Counter(ls._tally(iter_bits(old & ~atoms)))
    return _Fold(old.bit_count() + fresh.total(), new, held, old, shapes,
                 strays)


def _shapes(eng: SetEngine, x: int, by_y: dict, level: int,
            shapes: Counter):
    """Add to ``shapes`` the (rank, cardinality, ark) of x with y added,
    for the pairs of x that ``by_y`` counts by y's key (mask, rank + 1,
    ark): rank max(rank x, rank y + 1), cardinality |x| + 1, and the ark
    :func:`~adjhier.hfs.ark_of` x's element arks and y's.  Return those
    counts by y's mask, and the ark of each key whose sets' ark is not
    ``level``."""
    ex = eng.elements_of(x)
    arks, rank = [eng.ark_id(e) for e in ex], eng.rank_id(x)
    by_mask, odd = {}, {}
    for key, c in by_y.items():
        s, ry, ay = key
        ark = ark_of(arks + [ay])
        shapes[max(rank, ry), len(ex) + 1, ark] += c
        by_mask[s] = by_mask.get(s, 0) + c
        if ark != level:
            odd[key] = ark
    return by_mask, odd


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
        return next((m + 1 for m in range(n, -1, -1)
                     if ls.level_held(n, m) == 1 << ls.size(m)), 0)
    return n


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
    cross-checked against the refined recurrences.  A folded plain level
    is read off its interned ids and its fold's shape tally.
    """
    if not 0 <= n <= ls.depth:
        raise IndexError(f"level {n} beyond computed depth {ls.depth}")
    if by not in ("rank", "cardinality"):
        raise ValueError("profile axis must be 'rank' or 'cardinality'")
    eng = ls.engine
    key = eng.rank_id if by == "rank" else eng.cardinality_id
    fold = ls._shaped(n)
    hist = Counter(map(key, iter_bits(fold.old) if fold else ls.members(n)))
    if fold:
        axis = by == "cardinality"  # a shape is (rank, cardinality, ark)
        for shape, c in fold.shapes.items():
            hist[shape[axis]] += c
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
    """Every deepest-level member: first level containing it == its ark.

    A folded level's interned ids are checked here; its other members lie
    in no stored level, and its fold compared their arks with it."""
    if ls.spec.kind != "plain":
        raise ValueError("ark verification is defined on the plain hierarchy")
    eng = ls.engine
    deepest = ls.depth
    fold = ls._shaped(deepest)
    members = iter_bits(fold.old) if fold else ls.members(deepest)
    masks = ls._element_masks()
    mismatches = []
    for sid in members:
        first = masks[sid]
        by_levels = (first & -first).bit_length() - 1
        by_formula = eng.ark_id(sid)
        if by_levels != by_formula:
            mismatches.append((eng.format_id(sid), by_levels, by_formula))
    if fold:
        mismatches += [(eng.format_elements(elems), deepest, ark)
                       for elems, ark in fold.strays]
    return ArkReport(ls.size(deepest), mismatches)


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

"""Brute-force construction of hierarchy levels as explicit set collections.

Each level is built by literally applying its defining equation over the
interned universe of a dedicated :class:`~adjhier.hfs.SetEngine`, and is
stored as a dense bitset over ids.  The engine adjoins a whole level in
one batched pass (:meth:`~adjhier.hfs.SetEngine.adjoin_level`), whose ids
are consumed as they are made.  A level is assembled in one linear
pass: the sets its loop interns are a range of fresh ids, and only the
ids found again below that range are marked, in a byte array, so no big
int is built per pair.  Each level is read through one decoded view, a
bit string, so walks are linear in its size and membership tests take
constant time; subset counts read a table of the levels that hold each
element.  Every level has one count record (:data:`_Record`): its size
and two tallies, of its new members and of all its members, keyed by
the sorted tuple of their elements' level masks
(:meth:`LevelSets._tally`).  The subset counts b(n, m), their splits by
the number k of elements new at level m, and the sets of level n held by
a level m < n are all read off the record.  They look only at the levels
below n, which never change, so a record is made once and kept.  The
resulting ground-truth counts are what the recurrence modules are
checked against at small depth.

Level sizes grow doubly exponentially, so the deepest level dwarfs the
others, and no level is built from it.  It is not interned: it is
counted per x and per class of ys that read alike (see :func:`_fold`),
each set once, from the pair with the largest y that makes it
(canonical augmentation), and no pair is visited on its own.  That
count makes its record, for plain with each set's rank, cardinality and
ark, so its profiles and the ark lemma need no ids either.  The levels
below it are interned, and each one's record is tallied from its ids on
first read.  Only :meth:`LevelSets.members`, which ``--dump`` reads,
interns the deepest level, as the levels below were.

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
    """Levels of one hierarchy, each a bitset over engine ids, and one
    count record per level (see :data:`_Record`).

    Levels are append-only: a level, once stored, never changes, so its
    decoded view is computed once, and each stored level adds its bit to
    the per-element level masks.  What is read off level n's record, at
    levels m < n only, looks only at the mask bits below n, which are
    final once levels 0..n-1 are stored.  So a record, once made, is
    kept and never rebuilt, and nothing is invalidated.

    The deepest level that :func:`build_levels` makes is left folded: its
    record is counted per x and y-class as it is built (see
    :func:`_fold`), at a cost that grows with the xs and the classes,
    not with the pairs, and its sets are interned only when a read needs
    their ids (:attr:`levels` and :meth:`members`).  Every other level's
    record is tallied from its ids on first read.
    """

    def __init__(self, spec: HierarchySpec, engine: SetEngine, levels: list,
                 atom_ids: tuple = ()):
        self.spec, self.engine, self.atom_ids = spec, engine, atom_ids
        self._levels = levels  # bitsets over engine ids
        # sources[n]: the level whose members build_levels adjoined to
        # level n's to make level n + 1 (see _source)
        self.sources = []
        self._pairs = None  # (xs, ys) of a folded deepest level
        self._records = {}  # level: its _Record
        self._views, self._masks = [], []

    @property
    def levels(self) -> list:
        """The levels as bitsets; a folded deepest level is interned
        first."""
        if self._pairs is not None:
            (xs, ys), self._pairs = self._pairs, None
            eng = self.engine
            self._levels.append(
                _assemble(eng, self._levels[0], eng.adjoin_level(xs, ys)))
        return self._levels

    @property
    def depth(self) -> int:
        return len(self._levels) - (self._pairs is None)

    def size(self, n: int) -> int:
        return self._record(n).size

    def sizes(self) -> list:
        return [self.size(n) for n in range(self.depth + 1)]

    def members(self, n: int) -> list:
        if n >= len(self._levels):
            self.levels  # interns a folded deepest level
        return list(_ones(self._view(n)))

    def level_held(self, n: int, m: int) -> int:
        """How many sets of level n, atoms aside, have all their elements
        in level m, for m < n."""
        if not 0 <= m < n:
            raise IndexError(f"held ({n}, {m}) needs 0 <= m < n")
        return _count_with(self._record(n).held, m)

    def _fold_top(self, xs: list, ys: list):
        """Leave the next level, every x of ``xs`` with each y of ``ys``
        adjoined, folded (see :func:`_fold`)."""
        self._records[len(self._levels)] = _fold(self, xs, ys)
        self._pairs = (xs, ys)

    def _record(self, n: int) -> _Record:
        """Level n's record: the fold's, or tallied from the ids of a
        stored level on first read, with every id old and no shapes."""
        if n not in self._records:
            level, atoms = self._levels[n], (1 << len(self.atom_ids)) - 1
            below = self._levels[n - 1] if n else atoms
            self._records[n] = _Record(
                level.bit_count(), self._tally(iter_bits(level & ~below)),
                self._tally(iter_bits(level & ~atoms)), level, Counter(), [])
        return self._records[n]

    def _view(self, n: int) -> str:
        """Level n's decoded view; each stored level's view sets its bit
        in the element masks as it is made."""
        views, masks = self._views, self._masks
        while len(views) <= n:
            m = len(views)
            views.append(_bit_string(self._levels[m]))
            masks += [0] * (len(views[m]) - len(masks))
            for e in _ones(views[m]):
                masks[e] |= 1 << m
        return views[n]

    def _element_masks(self) -> list:
        """For each id of the stored levels, the bitmask of the stored
        levels that hold it: every element of a member, and every y that
        :func:`_fold` adjoins, is one of them."""
        self._view(len(self._levels) - 1)
        return self._masks

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


def _count_with(hist: dict, m: int) -> int:
    """Sets in a tally whose elements all lie in level m."""
    return sum(c for key, c in hist.items() if all(s >> m & 1 for s in key))


def _split(hist: dict, m: int) -> dict:
    """The sets in a tally whose elements all lie in level m, counted by
    how many of their elements are new at level m: those with bit m set
    and bit m-1 clear (``s & ~(s << 1)``)."""
    split = {}
    for key, c in hist.items():
        if all(s >> m & 1 for s in key):
            k = sum((s & ~(s << 1)) >> m & 1 for s in key)
            split[k] = split.get(k, 0) + c
    return split


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


# a level's count record: its size, LevelSets._tally of its new members
# and of all its members but the atoms, over the levels below it, and the
# bitset of its members already interned (all of them when stored); for a
# folded plain level also the (rank, cardinality, ark) tally of the
# others, and those whose ark is not the level, as (sorted element ids,
# ark), which a stored level has none of
_Record = namedtuple("_Record", "size new held old shapes strays")


def _fold(ls: LevelSets, xs: list, ys: list) -> _Record:
    """The level after the stored ones: level 0 plus every x of ``xs``
    with each y of ``ys`` adjoined, counted per x and per y-class
    without interning it.

    A set S = x with y adjoined, y not in x, comes from the pair
    (S - {w}, w) for every w in S that is a y and leaves an x; only the
    pair with the largest such w, by id, counts it (canonical
    augmentation; McKay, J. Algorithms 26, 1998).  So (x, y) is skipped
    when some z > y in x, z a y, has (x - {z}) with y added among the
    xs.  Those y form a small set per x, read off G[R] = {w a y : R with
    w added is an x} over the one-element deletions R of the xs.  A pair
    that is not skipped and names an old id, a set already interned or x
    itself when y is in x, marks it as :func:`_assemble` does.  No
    nesting of levels is assumed.

    The pairs of an x are not visited one by one.  A y-class is the key
    the record reads of y: its level mask, for plain also its rank + 1
    and its ark.  Every y of a class makes a fresh set but the ys in x,
    the skipped ones and those whose set is already interned, which
    :meth:`~adjhier.hfs.SetEngine.adjoined_interned` finds from the
    interned side.  So each class's count of fresh sets is its size less
    those, and an x costs O(|x| + skipped + interned + classes), never
    O(|ys|).

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
    key_of, totals = dict(zip(ys, ykeys)), Counter(ykeys)
    named = eng.adjoined_interned(xs, ys)
    pairs = {}  # (x's key, y's mask): the sets no id names yet
    for x in xs:
        ex = elements_of(x)
        bad, own = set(), []
        for i, z in enumerate(ex):
            if z in is_y:
                own.append(z)
                bad.update(w for w in grows.get(ex[:i] + ex[i + 1:], ())
                           if w < z)
        # y's key: the pairs of this x that make a fresh set, all of the
        # key's ys but those in x, those skipped and those already named
        by_y = dict(totals)
        for y in [*own, *bad]:
            by_y[key_of[y]] -= 1
        if own:  # x with one of its own elements added is x
            found[x >> 3] |= 1 << (x & 7)
        hits = named.get(x, {})
        for y, sid in hits.items():
            if y not in bad:
                by_y[key_of[y]] -= 1
                found[sid >> 3] |= 1 << (sid & 7)
        by_y = {k: c for k, c in by_y.items() if c}
        if shapes is not None:
            by_y, odd = _shapes(eng, x, by_y, level, shapes)
            if odd:
                skip = {*own, *bad, *hits}
                strays += [(tuple(eng.sort_ids(ex + (y,))), odd[k])
                           for y, k in zip(ys, ykeys)
                           if k in odd and y not in skip]
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
    return _Record(old.bit_count() + fresh.total(), new, held, old, shapes,
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
    when bounded, and when minimally bounded one past the largest m < n
    whose power set level n holds (0 when none); m = n never qualifies,
    as level n holds fewer than 2 ** size(n) sets."""
    if ls.spec.kind == "bounded":
        return ls.spec.f(n)
    if ls.spec.kind == "minbounded":
        return next((m + 1 for m in range(n - 1, -1, -1)
                     if ls.level_held(n, m) == 1 << ls.size(m)), 0)
    return n


def partition_counts(ls: LevelSets, n: int, m: int) -> int:
    """Members new at level n whose elements all lie in level m.

    One pass over level n's new members tallies, for every m at once,
    the levels that hold all of a member's elements."""
    if not 0 <= m < n <= ls.depth:
        raise IndexError(f"partition ({n}, {m}) outside computed levels")
    return _count_with(ls._record(n).new, m)


def partition_split(ls: LevelSets, n: int, m: int) -> dict:
    """The same count split by k = #elements that are new at level m.

    Read from one tally of level n's new members that serves every m."""
    if not 0 <= m < n <= ls.depth:
        raise IndexError(f"partition ({n}, {m}) outside computed levels")
    return _split(ls._record(n).new, m)


def profile_counts(ls: LevelSets, n: int, by: str) -> dict:
    """Histogram of level n members by rank or cardinality.

    Atoms count as rank 0 and cardinality 0; pure variants are the ones
    cross-checked against the refined recurrences.  Read off the record's
    old ids and its shape tally; a folded level of another variant keeps
    no shapes, so its sets are interned and read instead.
    """
    if not 0 <= n <= ls.depth:
        raise IndexError(f"level {n} beyond computed depth {ls.depth}")
    if by not in ("rank", "cardinality"):
        raise ValueError("profile axis must be 'rank' or 'cardinality'")
    eng = ls.engine
    key = eng.rank_id if by == "rank" else eng.cardinality_id
    rec = ls._record(n)
    shapes = rec.shapes
    hist = Counter(map(key, ls.members(n) if shapes is None
                       else iter_bits(rec.old)))
    axis = by == "cardinality"  # a shape is (rank, cardinality, ark)
    for shape, c in (shapes or {}).items():
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

    The record's old ids are checked here; a folded level's other members
    lie in no stored level, and its fold compared their arks with it."""
    if ls.spec.kind != "plain":
        raise ValueError("ark verification is defined on the plain hierarchy")
    eng = ls.engine
    deepest = ls.depth
    rec = ls._record(deepest)
    masks = ls._element_masks()
    mismatches = []
    for sid in iter_bits(rec.old):
        first = masks[sid]
        by_levels = (first & -first).bit_length() - 1
        by_formula = eng.ark_id(sid)
        if by_levels != by_formula:
            mismatches.append((eng.format_id(sid), by_levels, by_formula))
    mismatches += [(eng.format_elements(elems), deepest, ark)
                   for elems, ark in rec.strays]
    return ArkReport(rec.size, mismatches)


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

"""Interned hereditarily finite sets with adjunction and two rank notions.

A :class:`SetEngine` owns an append-only intern table mapping element
tuples to dense integer ids, so extensional equality is id equality and
level sets can be stored as bitsets over ids.  Atoms (urelements) occupy a
reserved id range ``0..n_atoms-1`` at the bottom of the table.

The canonical total order on sets compares the element sequences in
descending order lexicographically (recursing into elements); on pure
sets this is exactly the numeric order of their Ackermann codes.  All
operations are pure given the table; inserts must be serialized by the
caller (single-writer), reads are safe to share.

Interning keeps two properties per set, its rank and whether an atom
occurs in it.  A set new to :meth:`SetEngine.adjoin_ids` takes both from
x and y (rank max(rank x, rank y + 1)), so an adjunction costs O(1)
beyond building its element tuple; :meth:`SetEngine.intern_sorted_ids`
reads them off the elements.  The adjunctive rank is computed on its
first read and kept.

A whole level of adjunctions goes through :meth:`SetEngine.adjoin_level`
in one batched pass: one canonical sort per level gives every set it
touches an integer position, so each pair finds its slot with a C
bisection instead of recursive comparisons, and every set gets the id
:meth:`SetEngine.adjoin_ids` would give it pair by pair.
"""

from __future__ import annotations

import functools
from bisect import bisect_left

from .errors import ResourceCapError

DEFAULT_CODE_BIT_BUDGET = 1 << 20
# deepest nesting parse accepts, and one more than the largest rank the
# engine interns; the recursive walks of a set (format_id, compare_ids,
# code_of_id) stay well inside Python's default recursion limit
PARSE_DEPTH_LIMIT = 256


class SetEngine:
    """Intern table plus rank, atom-flag, ark and code caches for one
    universe of sets."""

    def __init__(self, n_atoms: int = 0):
        # id -> sorted tuple of element ids, None for atoms
        self._elems = [None] * n_atoms
        self._rank = [0] * n_atoms          # id -> classical rank
        self._has_atom = [True] * n_atoms   # id -> atom in transitive closure
        self._ark = {}          # id -> adjunctive rank, filled on first read
        self._intern = {}       # element tuple -> id
        self._codes = {}        # id -> Ackermann code (only within bit budget)
        self._decoded = {}      # code -> id
        self._cmp_cache = {}
        self.n_atoms = n_atoms
        self._empty_id = self.intern_sorted_ids(())

    # -- construction ------------------------------------------------------

    def intern_sorted_ids(self, elems: tuple) -> int:
        """Intern a duplicate-free tuple of ids already in canonical order.

        Refuses a set whose rank would reach :data:`PARSE_DEPTH_LIMIT`."""
        found = self._intern.get(elems)
        if found is not None:
            return found
        rank, has_atom = self._rank, self._has_atom
        return self._add(elems, 1 + max((rank[e] for e in elems), default=-1),
                         any(has_atom[e] for e in elems))

    def adjoin_ids(self, x: int, y: int) -> int:
        """Id of ``x with y added``; returns ``x`` itself when y is a member.

        A new set's rank and atom flag follow from those of x and y, so
        the bookkeeping beyond building its element tuple is O(1)."""
        ex = self._elems[x]
        if ex is None:
            raise ValueError("cannot adjoin an element to an atom")
        lo, hi = 0, len(ex)
        while lo < hi:
            mid = (lo + hi) // 2
            c = self.compare_ids(ex[mid], y)
            if c == 0:
                return x
            if c < 0:
                lo = mid + 1
            else:
                hi = mid
        elems = ex[:lo] + (y,) + ex[lo:]
        found = self._intern.get(elems)
        if found is not None:
            return found
        return self._add(elems, max(self._rank[x], self._rank[y] + 1),
                         self._has_atom[x] or self._has_atom[y])

    def adjoin_level(self, xs, ys):
        """Yield the id of ``x with y added`` for every x in the sequence
        ``xs`` and y in the sequence ``ys``, x-major: the ids
        :meth:`adjoin_ids` gives pair by pair.

        One canonical sort of the ys and of every element of the xs gives
        each of them an integer position, so y's slot in x is one C
        bisection over x's element positions, and a pair costs one tuple
        build and one dict lookup.  A set new to the table takes its rank
        and atom flag from x and y, as in :meth:`adjoin_ids`; one whose
        rank would reach :data:`PARSE_DEPTH_LIMIT` is refused and left
        out of the table."""
        elems, rank, has_atom = self._elems, self._rank, self._has_atom
        intern = self._intern
        touched = set(ys)
        for x in xs:
            if elems[x] is None:
                raise ValueError("cannot adjoin an element to an atom")
            touched.update(elems[x])
        order = self.sort_ids(touched)
        pos = {sid: i for i, sid in enumerate(order)}
        yinfo = [(y, pos[y], rank[y] + 1, has_atom[y]) for y in ys]
        end = len(order)  # sentinel past every position
        for x in xs:
            ex = elems[x]
            at = [pos[e] for e in ex]
            at.append(end)
            cuts = [(ex[:i], ex[i:]) for i in range(len(ex) + 1)]
            rx, ax = rank[x], has_atom[x]
            for y, p, ry, ay in yinfo:
                i = bisect_left(at, p)
                if at[i] == p:
                    yield x
                    continue
                pre, suf = cuts[i]
                t = pre + (y,) + suf
                fresh = len(elems)
                sid = intern.setdefault(t, fresh)
                if sid == fresh:
                    r = rx if rx > ry else ry
                    if r >= PARSE_DEPTH_LIMIT:
                        del intern[t]
                        raise ValueError(
                            f"sets nested deeper than {PARSE_DEPTH_LIMIT}")
                    elems.append(t)
                    rank.append(r)
                    has_atom.append(ax or ay)
                yield sid

    def _add(self, elems: tuple, rank: int, has_atom: bool) -> int:
        """Append a set not yet interned, with its rank and atom flag."""
        if rank >= PARSE_DEPTH_LIMIT:
            raise ValueError(f"sets nested deeper than {PARSE_DEPTH_LIMIT}")
        sid = len(self._elems)
        self._elems.append(elems)
        self._rank.append(rank)
        self._has_atom.append(has_atom)
        self._intern[elems] = sid
        return sid

    # -- canonical order ---------------------------------------------------

    def compare_ids(self, a: int, b: int) -> int:
        """Canonical order: -1, 0 or 1.

        Atoms sort below every set and among themselves by id.  Sets are
        compared as descending element sequences, lexicographically, with
        element comparisons recursing.  On pure sets this agrees with the
        numeric order of Ackermann codes.
        """
        if a == b:
            return 0
        key = (a, b)
        cached = self._cmp_cache.get(key)
        if cached is not None:
            return cached
        ea, eb = self._elems[a], self._elems[b]
        if ea is None or eb is None:
            if ea is None and eb is None:
                c = -1 if a < b else 1
            else:
                c = -1 if ea is None else 1
        else:
            c = 0
            for x, y in zip(reversed(ea), reversed(eb)):
                if x != y:
                    c = self.compare_ids(x, y)
                    break
            if c == 0:
                # one descending sequence is a prefix of the other
                c = -1 if len(ea) < len(eb) else 1
        self._cmp_cache[key] = c
        self._cmp_cache[(b, a)] = -c
        return c

    def sort_ids(self, ids) -> list:
        """Sort ids into canonical order."""
        return sorted(ids, key=functools.cmp_to_key(self.compare_ids))

    # -- queries -----------------------------------------------------------

    def elements_of(self, sid: int) -> tuple:
        elems = self._elems[sid]
        if elems is None:
            raise ValueError("atoms have no elements")
        return elems

    def is_atom(self, sid: int) -> bool:
        return self._elems[sid] is None

    def rank_id(self, sid: int) -> int:
        return self._rank[sid]

    def ark_id(self, sid: int) -> int:
        """Adjunctive rank: 0 for atoms and the empty set, else
        1 + max(a_j + n - 1 - j) over the n element arks sorted ascending.
        Computed on the first read and kept."""
        ark = self._ark.get(sid)
        if ark is None:
            elems = self._elems[sid]
            if elems:
                arks = sorted(self.ark_id(e) for e in elems)
                n = len(arks)
                ark = 1 + max(a + n - 1 - j for j, a in enumerate(arks))
            else:
                ark = 0
            self._ark[sid] = ark
        return ark

    def cardinality_id(self, sid: int) -> int:
        elems = self._elems[sid]
        return 0 if elems is None else len(elems)

    def contains_atom(self, sid: int) -> bool:
        return self._has_atom[sid]

    @property
    def size(self) -> int:
        """Number of interned nodes (atoms included)."""
        return len(self._elems)

    # -- Ackermann coding ----------------------------------------------------

    def code_of_id(self, sid: int) -> int:
        """Ackermann code: 0 for the empty set, else sum of 2**code(element).

        Refuses with :class:`ResourceCapError` when the code would need
        more than :data:`DEFAULT_CODE_BIT_BUDGET` bits; sets containing
        atoms have no code and raise ValueError.
        """
        code = self._codes.get(sid)
        if code is not None:
            return code
        if self._elems[sid] is None:
            raise ValueError("atoms have no Ackermann code")
        if self._has_atom[sid]:
            raise ValueError("sets containing atoms have no Ackermann code")
        budget = DEFAULT_CODE_BIT_BUDGET
        total = 0
        for e in self._elems[sid]:
            c = self.code_of_id(e)
            if c + 1 > budget:
                raise ResourceCapError(
                    f"Ackermann code would exceed {budget} bits", cap=budget)
            total += 1 << c
        self._codes[sid] = total
        return total

    def decode_id(self, code: int) -> int:
        """Inverse of :meth:`code_of_id` (pure sets only)."""
        if code < 0:
            raise ValueError("codes are nonnegative")
        budget = DEFAULT_CODE_BIT_BUDGET
        if code.bit_length() > budget:
            raise ResourceCapError(f"code has more than {budget} bits",
                                   cap=budget)
        cached = self._decoded.get(code)
        if cached is not None:
            return cached
        ids = []
        rest = code
        while rest:
            low = rest & -rest
            ids.append(self.decode_id(low.bit_length() - 1))
            rest ^= low
        # bit positions increase, so element ids are already in canonical order
        sid = self.intern_sorted_ids(tuple(ids))
        self._decoded[code] = sid
        return sid

    # -- textual notation ----------------------------------------------------

    def format_id(self, sid: int) -> str:
        if self._elems[sid] is None:
            return f"u{sid + 1}"
        return "{" + ",".join(self.format_id(e) for e in self._elems[sid]) + "}"

    def parse(self, text: str) -> HFSet:
        """Parse pure-set notation like ``{{},{{}}}`` (whitespace ignored)."""
        sid, pos = self._parse_at(text, 0)
        pos = _skip_ws(text, pos)
        if pos != len(text):
            raise ValueError(f"trailing input at offset {pos}: {text[pos:]!r}")
        return HFSet(self, sid)

    def _parse_at(self, text: str, pos: int):
        """Parse one set from ``pos``; returns its id and the end offset.

        Iterative, with the sets still open on an explicit stack, so a
        deep nesting is refused by :data:`PARSE_DEPTH_LIMIT` rather than
        by the interpreter's recursion limit.
        """
        open_sets = []  # open sets with their elements so far, innermost last
        while True:
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != "{":
                raise ValueError(f"expected '{{' at offset {pos}")
            if len(open_sets) == PARSE_DEPTH_LIMIT:
                raise ValueError(f"sets nested deeper than "
                                 f"{PARSE_DEPTH_LIMIT} at offset {pos}")
            open_sets.append(self._empty_id)
            pos = _skip_ws(text, pos + 1)
            if pos < len(text) and text[pos] == "}":
                pos += 1
                while True:  # close sets until one more element follows
                    sid = open_sets.pop()
                    if not open_sets:
                        return sid, pos
                    open_sets[-1] = self.adjoin_ids(open_sets[-1], sid)
                    pos = _skip_ws(text, pos)
                    if pos >= len(text):
                        raise ValueError("unterminated set")
                    if text[pos] == ",":
                        pos += 1
                        break
                    if text[pos] != "}":
                        raise ValueError(
                            f"expected ',' or '}}' at offset {pos}")
                    pos += 1

    # -- handles -------------------------------------------------------------

    def empty(self) -> HFSet:
        return HFSet(self, self._empty_id)

    def atom(self, index: int) -> HFSet:
        if not 0 <= index < self.n_atoms:
            raise IndexError("no such atom")
        return HFSet(self, index)

    def wrap(self, sid: int) -> HFSet:
        return HFSet(self, sid)


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


class HFSet:
    """Handle to one interned node of a :class:`SetEngine`."""

    __slots__ = ("engine", "id")

    def __init__(self, engine: SetEngine, sid: int):
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "id", sid)

    def __setattr__(self, name, value):
        raise AttributeError("HFSet handles are immutable")

    @property
    def elements(self):
        eng = self.engine
        return tuple(HFSet(eng, e) for e in eng.elements_of(self.id))

    @property
    def cardinality(self) -> int:
        return self.engine.cardinality_id(self.id)

    @property
    def is_atom(self) -> bool:
        return self.engine.is_atom(self.id)

    @property
    def rank(self) -> int:
        return self.engine.rank_id(self.id)

    @property
    def ark(self) -> int:
        return self.engine.ark_id(self.id)

    def adjoin(self, other: HFSet) -> HFSet:
        _check_same_engine(self, other)
        return HFSet(self.engine, self.engine.adjoin_ids(self.id, other.id))

    def code(self) -> int:
        return self.engine.code_of_id(self.id)

    def __len__(self):
        return self.cardinality

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, other):
        return (isinstance(other, HFSet) and other.engine is self.engine
                and other.id in self.engine.elements_of(self.id))

    def __eq__(self, other):
        return (isinstance(other, HFSet) and other.engine is self.engine
                and other.id == self.id)

    def __hash__(self):
        return hash((id(self.engine), self.id))

    def __lt__(self, other):
        _check_same_engine(self, other)
        return self.engine.compare_ids(self.id, other.id) < 0

    def __le__(self, other):
        _check_same_engine(self, other)
        return self.engine.compare_ids(self.id, other.id) <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __str__(self):
        return self.engine.format_id(self.id)

    def __repr__(self):
        return f"HFSet({self})"


def _check_same_engine(x: HFSet, y: HFSet):
    if x.engine is not y.engine:
        raise ValueError("sets belong to different engines")

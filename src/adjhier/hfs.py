"""Interned hereditarily finite sets with adjunction and two rank notions.

A :class:`SetEngine` owns an append-only intern table mapping element
tuples to dense integer ids, so extensional equality is id equality and
level sets can be stored as bitsets over ids.  Atoms (urelements) occupy a
reserved id range ``0..n_atoms-1`` at the bottom of the table, and the
empty set takes the next id.

The canonical total order on sets compares the element sequences in
descending order lexicographically (recursing into elements); on pure
sets this is the numeric order of their Ackermann codes.  All
operations are pure given the table; inserts must be serialized by the
caller (single-writer), reads are safe to share.

Interning keeps each set's rank: :meth:`SetEngine.intern_sorted_ids`
reads it off the elements, and a set new to
:meth:`SetEngine.adjoin_level` takes it from x and y (rank
max(rank x, rank y + 1)).  The adjunctive rank is computed on its first
read and kept.

A whole level of adjunctions goes through :meth:`SetEngine.adjoin_level`
in one batched pass: one canonical sort per level gives every set it
touches an integer position, so each pair finds its slot with a C
bisection instead of recursive comparisons.
:meth:`SetEngine.adjoined_interned` finds the pairs of a level whose set
is already interned without visiting the others: it reads them off the
interned sets, so its cost is that of the table, not of the pairs.
"""

from __future__ import annotations

from bisect import bisect_left

# one more than the largest rank the engine interns, so the recursive
# walks of a set (format_id, _key, ark_id) stay well inside
# Python's default recursion limit, and every rank fits in one byte
PARSE_DEPTH_LIMIT = 256


def ark_of(arks: list) -> int:
    """Adjunctive rank of a set whose elements have the adjunctive ranks
    ``arks``: 0 for the empty set, else 1 + max(a_j + n - 1 - j) over the
    n arks sorted ascending."""
    if not arks:
        return 0
    n = len(arks)
    return 1 + max(a + n - 1 - j for j, a in enumerate(sorted(arks)))


class SetEngine:
    """Intern table plus rank, ark and order caches for one universe of
    sets."""

    def __init__(self, n_atoms: int = 0):
        # id -> sorted tuple of element ids, None for atoms
        self._elems = [None] * n_atoms
        # id -> classical rank, one byte each: a rank that would reach
        # PARSE_DEPTH_LIMIT is refused before it is appended
        self._rank = bytearray(n_atoms)
        self._ark = {}          # id -> adjunctive rank, filled on first read
        self._intern = {}       # element tuple -> id
        self._keys = {}         # id -> sort key, filled on first read
        self.n_atoms = n_atoms
        self.intern_sorted_ids(())  # the empty set

    # -- construction ------------------------------------------------------

    def intern_sorted_ids(self, elems: tuple) -> int:
        """Intern a duplicate-free tuple of ids already in canonical order.

        Refuses a set whose rank would reach :data:`PARSE_DEPTH_LIMIT`."""
        found = self._intern.get(elems)
        if found is not None:
            return found
        rank = 1 + max((self._rank[e] for e in elems), default=-1)
        if rank >= PARSE_DEPTH_LIMIT:
            raise ValueError(f"sets nested deeper than {PARSE_DEPTH_LIMIT}")
        sid = len(self._elems)
        self._elems.append(elems)
        self._rank.append(rank)
        self._intern[elems] = sid
        return sid

    def adjoin_level(self, xs, ys):
        """Yield the id of ``x with y added`` for every x in the sequence
        ``xs`` and y in the sequence ``ys``, x-major; x itself when y is
        already a member.

        A pair costs one tuple build and one dict lookup (see
        :meth:`_adjoined`).  A set new to the table takes its rank from x
        and y; one whose rank would reach :data:`PARSE_DEPTH_LIMIT` is
        refused and left out of the table."""
        elems, rank, intern = self._elems, self._rank, self._intern
        yranks = [rank[y] + 1 for y in ys]
        for x, row in zip(xs, self._adjoined(xs, ys)):
            rx = rank[x]
            for t, ry in zip(row, yranks):
                if t is None:
                    yield x
                    continue
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
                yield sid

    def adjoined_interned(self, xs, ys) -> dict:
        """Map each x of ``xs`` to {y: S} for every y of ``ys`` not in x
        whose set S, x with y added, is already interned.  Interns
        nothing.

        Read off the interned side: for each interned non-atom S and each
        w in S that is a y, the pair (S - {w}, w) names S when S - {w} is
        interned and is an x.  The cost is one tuple build and one dict
        lookup per such w, never one per pair."""
        is_x, is_y, get = set(xs), set(ys), self._intern.get
        named = {}
        for sid, elems in enumerate(self._elems):
            if elems is None:
                continue
            for i, w in enumerate(elems):
                if w in is_y:
                    x = get(elems[:i] + elems[i + 1:])
                    if x in is_x:
                        named.setdefault(x, {})[w] = sid
        return named

    def _adjoined(self, xs, ys):
        """For every x of ``xs``, in order, the list over ``ys`` of x's
        element tuple with y inserted in canonical order, None where y is
        already a member.

        One canonical sort of the ys and of every element of the xs gives
        each of them an integer position, so y's slot in x is one C
        bisection over x's element positions."""
        elems = self._elems
        touched = set(ys)
        for x in xs:
            if elems[x] is None:
                raise ValueError("cannot adjoin an element to an atom")
            touched.update(elems[x])
        order = self.sort_ids(touched)
        pos = {sid: i for i, sid in enumerate(order)}
        yinfo = [(y, pos[y]) for y in ys]
        end = len(order)  # sentinel past every position
        for x in xs:
            ex = elems[x]
            at = [pos[e] for e in ex]
            at.append(end)
            cuts = [(ex[:i], ex[i:]) for i in range(len(ex) + 1)]
            row = []
            for y, p in yinfo:
                i = bisect_left(at, p)
                if at[i] == p:
                    row.append(None)
                else:
                    pre, suf = cuts[i]
                    row.append(pre + (y,) + suf)
            yield row

    # -- canonical order ---------------------------------------------------

    def _key(self, sid: int) -> tuple:
        """Canonical sort key, kept once read: (0, id) for an atom, else (1,
        the element keys in descending order).  Tuple order is the canonical
        order: atoms first, by id, then sets as descending element sequences
        with a prefix first; on pure sets, the order of Ackermann codes."""
        key = self._keys.get(sid)
        if key is None:
            elems = self._elems[sid]
            key = (0, sid) if elems is None else (
                1, tuple(self._key(e) for e in reversed(elems)))
            self._keys[sid] = key
        return key

    def sort_ids(self, ids) -> list:
        """Sort ids into canonical order."""
        return sorted(ids, key=self._key)

    # -- queries -----------------------------------------------------------

    def elements_of(self, sid: int) -> tuple:
        elems = self._elems[sid]
        if elems is None:
            raise ValueError("atoms have no elements")
        return elems

    def rank_id(self, sid: int) -> int:
        return self._rank[sid]

    def ark_id(self, sid: int) -> int:
        """Adjunctive rank: 0 for atoms, else :func:`ark_of` its element
        arks.  Computed on the first read and kept."""
        ark = self._ark.get(sid)
        if ark is None:
            elems = self._elems[sid]
            ark = 0 if elems is None else ark_of(
                [self.ark_id(e) for e in elems])
            self._ark[sid] = ark
        return ark

    def cardinality_id(self, sid: int) -> int:
        elems = self._elems[sid]
        return 0 if elems is None else len(elems)

    @property
    def size(self) -> int:
        """Number of interned nodes (atoms included)."""
        return len(self._elems)

    # -- textual notation ----------------------------------------------------

    def format_id(self, sid: int) -> str:
        if self._elems[sid] is None:
            return f"u{sid + 1}"
        return self.format_elements(self._elems[sid])

    def format_elements(self, elems: tuple) -> str:
        """The notation of the set of these ids, given in canonical order,
        whether or not that set is interned."""
        return "{" + ",".join(self.format_id(e) for e in elems) + "}"

import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from adjhier.hfs import PARSE_DEPTH_LIMIT, SetEngine
from adjhier.oracle import build_levels
from adjhier.variants import BoundFunction, HierarchySpec

from hfs_reference import code, decode, rank, read


@pytest.fixture()
def eng():
    return SetEngine()


def intern(eng, x):
    """Id of a reference set or atom in ``eng``, interned with its
    elements."""
    if isinstance(x, str):
        return int(x[1:]) - 1
    return eng.intern_sorted_ids(tuple(eng.sort_ids({intern(eng, e)
                                                     for e in x})))


def as_set(eng, sid):
    """The reference set an engine id names, read off its notation."""
    return read(eng.format_id(sid))


def adjoin(eng, x, y):
    return next(eng.adjoin_level([x], [y]))


def test_empty_set_is_unique_and_flat(eng):
    e = eng.intern_sorted_ids(())
    assert e == 0 and eng.size == 1 and eng.format_id(e) == "{}"
    assert SetEngine(n_atoms=2).intern_sorted_ids(()) == 2
    assert eng.cardinality_id(e) == eng.rank_id(e) == eng.ark_id(e) == 0


def test_adjoin_examples(eng):
    e = eng.intern_sorted_ids(())
    s1 = adjoin(eng, e, e)
    assert eng.format_id(s1) == "{{}}"
    assert adjoin(eng, s1, e) == s1      # absorption: {} already a member
    s2 = adjoin(eng, s1, s1)
    assert eng.format_id(s2) == "{{},{{}}}"
    assert eng.cardinality_id(s2) == 2


def test_rank_examples(eng):
    for text, want in (("{}", 0), ("{{}}", 1), ("{{},{{}}}", 2)):
        assert eng.rank_id(intern(eng, read(text))) == want


def test_ark_examples(eng):
    for text, want in (("{}", 0), ("{{{}}}", 2), ("{{},{{}}}", 2)):
        assert eng.ark_id(intern(eng, read(text))) == want


def test_ark_against_level_membership():
    # the recursive formula must say "first level that contains the set"
    ls = build_levels(HierarchySpec.plain(), 2)
    eng = ls.engine
    nested = intern(eng, read("{{{}}}"))   # in level 2, not in level 1
    assert nested in ls.members(2) and nested not in ls.members(1)
    pair = intern(eng, read("{{},{{}}}"))
    assert pair in ls.members(2) and pair not in ls.members(1)


def test_ackermann_code_examples():
    assert [code(read(t)) for t in ("{}", "{{}}", "{{},{{}}}")] == [0, 1, 3]


def test_decode_examples(eng):
    assert [eng.format_id(intern(eng, decode(n))) for n in (0, 3)] == [
        "{}", "{{},{{}}}"]
    # 4 = 2**2, so the single element is the set coded 2
    four = intern(eng, decode(4))
    assert eng.cardinality_id(four) == 1
    assert code(as_set(eng, eng.elements_of(four)[0])) == 2
    assert eng.format_id(four) == "{{{{}}}}"


def test_code_roundtrip_small_exhaustive():
    assert all(code(decode(n)) == n for n in range(4096))


def test_code_roundtrip_oracle_universe():
    ls = build_levels(HierarchySpec.plain(), 5)
    eng = ls.engine
    members = ls.members(5)  # interns the folded deepest level
    size = eng.size
    for sid in members:
        assert intern(eng, decode(code(as_set(eng, sid)))) == sid
    assert eng.size == size


def test_parser_reads_back_every_printed_member():
    ls = build_levels(HierarchySpec.plain(), 5)
    eng = ls.engine
    members = ls.members(5)  # interns the folded deepest level
    size = eng.size
    for sid in members:
        assert intern(eng, as_set(eng, sid)) == sid
    assert eng.size == size


def precedes(eng, a, b):
    """a comes strictly before b in canonical order: the stable sort
    moves a ahead of b only when a's key is the smaller."""
    return eng.sort_ids([b, a]) == [a, b]


def test_codes_are_monotone_in_canonical_order(eng):
    ids = [intern(eng, decode(n)) for n in range(256)]
    for a, b in itertools.combinations(range(256), 2):
        assert precedes(eng, ids[a], ids[b])


def test_order_agrees_with_codes_on_long_prefix(eng):
    # consecutive agreement extends to the whole range by transitivity
    prev = intern(eng, decode(0))
    for n in range(1, 20000):
        cur = intern(eng, decode(n))
        assert precedes(eng, prev, cur)
        prev = cur


@given(st.sets(st.integers(min_value=0, max_value=2 ** 64), min_size=2,
               max_size=6))
def test_codes_monotone_random(codes):
    eng = SetEngine()
    ids = [intern(eng, decode(n)) for n in sorted(codes)]
    for i in range(len(ids) - 1):
        assert precedes(eng, ids[i], ids[i + 1])


def test_rank_never_exceeds_ark():
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for sid in ls.members(4):
        assert eng.rank_id(sid) <= eng.ark_id(sid)


def _adjoined_pairs(eng, mem):
    """((x, y), id of x with y added) for every x and y of ``mem``."""
    return zip(itertools.product(mem, mem), eng.adjoin_level(mem, mem))


def test_adjoin_ark_bounds():
    # max(ark x, ark y) <= ark(x u {y}) <= max + 1
    ls = build_levels(HierarchySpec.plain(), 3)
    eng = ls.engine
    for (x, y), xy in _adjoined_pairs(eng, ls.members(3)):
        top = max(eng.ark_id(x), eng.ark_id(y))
        assert top <= eng.ark_id(xy) <= top + 1


def test_adjoin_ark_exact_when_y_dominates():
    # ark x <= ark y and y not a member force ark(x u {y}) = ark y + 1
    ls = build_levels(HierarchySpec.plain(), 3)
    eng = ls.engine
    for (x, y), xy in _adjoined_pairs(eng, ls.members(3)):
        if eng.ark_id(x) <= eng.ark_id(y) and y not in eng.elements_of(x):
            assert eng.ark_id(xy) == eng.ark_id(y) + 1


def test_adjoin_ark_exact_when_x_inside_ys_level():
    # x inside level ark(y) and y fresh force ark = max + 1
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for (x, y), xy in _adjoined_pairs(eng, ls.members(3)):
        lvl = ls.levels[eng.ark_id(y)]
        if (y not in eng.elements_of(x)
                and all(lvl >> e & 1 for e in eng.elements_of(x))):
            assert eng.ark_id(xy) == max(eng.ark_id(x), eng.ark_id(y)) + 1


def _ark_formula(arks):
    n = len(arks)
    return 1 + max(a + n - 1 - j for j, a in enumerate(arks))


def test_ark_value_is_tie_order_independent():
    # reordering elements of equal ark cannot change the formula's value
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for sid in ls.members(4):
        elems = eng.elements_of(sid)
        if len(elems) < 2:
            continue
        base = sorted(eng.ark_id(e) for e in elems)
        for perm in itertools.permutations(base):
            if sorted(perm) == list(perm):
                assert _ark_formula(list(perm)) == eng.ark_id(sid)


def test_engine_refuses_sets_deeper_than_the_limit(eng, monkeypatch):
    e = eng.intern_sorted_ids(())
    chain = [e]
    with pytest.raises(ValueError, match="nested deeper"):
        for _ in range(3000):
            chain.append(adjoin(eng, e, chain[-1]))
    assert len(chain) == PARSE_DEPTH_LIMIT
    assert eng.rank_id(chain[-1]) == PARSE_DEPTH_LIMIT - 1
    # the recursive walks of the deepest set stay within the limit
    depth = [0, 0]  # current, deepest

    def tracked(method):
        def wrapper(self, sid):
            depth[0] += 1
            depth[1] = max(depth)
            try:
                return method(self, sid)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(SetEngine, "format_id", tracked(SetEngine.format_id))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * PARSE_DEPTH_LIMIT)  # room for wrappers
    try:
        text = eng.format_id(chain[-1])
    finally:
        sys.setrecursionlimit(limit)
    assert text == "{" * PARSE_DEPTH_LIMIT + "}" * PARSE_DEPTH_LIMIT
    assert depth[1] == PARSE_DEPTH_LIMIT


def test_interned_chain_stops_at_the_same_rank(eng):
    # intern_sorted_ids reads the rank off the elements, adjoin_level off
    # x and y; both refuse at the same depth
    chain = [eng.intern_sorted_ids(())]
    with pytest.raises(ValueError, match="nested deeper"):
        for _ in range(3000):
            chain.append(eng.intern_sorted_ids((chain[-1],)))
    assert len(chain) == PARSE_DEPTH_LIMIT
    assert eng.rank_id(chain[-1]) == PARSE_DEPTH_LIMIT - 1
    assert_bookkeeping_by_definition(eng)  # the lazy ark recurses as deep


def test_printer_emits_canonical_order(eng):
    assert eng.format_id(intern(eng, read("{{{}},{}}"))) == "{{},{{}}}"


def test_atoms_are_opaque():
    eng = SetEngine(n_atoms=2)
    assert [eng.format_id(a) for a in (0, 1)] == ["u1", "u2"]
    assert eng.rank_id(0) == eng.ark_id(0) == eng.cardinality_id(0) == 0
    with pytest.raises(ValueError, match="atoms have no elements"):
        eng.elements_of(0)
    with pytest.raises(ValueError, match="atom"):
        list(eng.adjoin_level([0], [2]))
    s = adjoin(eng, 2, 0)
    assert eng.format_id(s) == "{u1}" and eng.rank_id(s) == 1


def recomputed(eng):
    """(rank, ark, cardinality) of every interned id, from its elements
    by definition; elements are interned before their sets."""
    props = []
    for sid in range(eng.size):
        if sid < eng.n_atoms:
            props.append((0, 0, 0))
            continue
        elems = eng.elements_of(sid)
        sub = [props[e] for e in elems]
        arks = sorted(p[1] for p in sub)
        props.append((
            1 + max((p[0] for p in sub), default=-1),
            _ark_formula(arks) if arks else 0,
            len(elems)))
    return props


def assert_bookkeeping_by_definition(eng):
    size = eng.size
    for sid, want in enumerate(recomputed(eng)):
        got = (eng.rank_id(sid), eng.ark_id(sid), eng.cardinality_id(sid))
        assert got == want, (sid, eng.format_id(sid))
        if sid >= eng.n_atoms:
            elems = eng.elements_of(sid)
            assert list(elems) == eng.sort_ids(set(elems))
            assert eng.intern_sorted_ids(elems) == sid
    assert eng.size == size  # every element tuple was interned once


@pytest.mark.parametrize("build", [
    lambda: build_levels(HierarchySpec.plain(), 5),
    lambda: build_levels(HierarchySpec.atoms(2), 3),
    lambda: build_levels(HierarchySpec.bounded(BoundFunction("sqrt")), 27),
    lambda: build_levels(HierarchySpec.min_bounded(), 5),
    lambda: build_levels(HierarchySpec.atoms(1), 3),
    lambda: build_levels(HierarchySpec.bounded(BoundFunction("log2")), 19),
], ids=["plain-5", "atoms-2-3", "bounded-sqrt-27", "minbounded-5",
        "atoms-1-3", "bounded-log2-19"])
def test_oracle_bookkeeping_matches_definition(build):
    assert_bookkeeping_by_definition(build().engine)


def test_parsed_and_decoded_bookkeeping_matches_definition(eng):
    for n in range(3000):
        intern(eng, decode(n))
    for text in ("{{{{{}}}},{{},{{}}}}", "{" * 40 + "}" * 40,
                 "{{{{{}}},{}},{{{}},{{{}}}},{}}"):
        intern(eng, read(text))
    atoms = SetEngine(n_atoms=2)
    intern(atoms, read("{u2,{u1}}"))
    for e in (eng, atoms):
        assert_bookkeeping_by_definition(e)


def _grown(pairs, n_atoms=2):
    """An engine grown by random adjunctions, atoms allowed as elements."""
    eng = SetEngine(n_atoms=n_atoms)
    for i, j in pairs:
        x, y = i % eng.size, j % eng.size
        if x < n_atoms:
            eng.intern_sorted_ids(tuple(eng.sort_ids({x, y})))
        else:
            adjoin(eng, x, y)
    return eng


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                max_size=60))
def test_random_adjunctions_match_definition(pairs):
    assert_bookkeeping_by_definition(_grown(pairs))


def _assert_adjunctions(eng, xs, ys, got):
    """Each id in ``got`` is the next x with y added, x-major: x itself
    when y is a member, else a set whose notation names x | {y} and
    whose rank is that set's."""
    for (x, y), sid in zip(itertools.product(xs, ys), got):
        want = as_set(eng, x) | {as_set(eng, y)}
        assert as_set(eng, sid) == want
        assert eng.rank_id(sid) == rank(want)
        if y in eng.elements_of(x):
            assert sid == x
    assert_bookkeeping_by_definition(eng)


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                max_size=40),
       st.integers(0, 2),
       st.lists(st.integers(0, 63), max_size=8),
       st.lists(st.integers(0, 63), max_size=8),
       st.booleans())
def test_adjoin_level_equals_frozenset_adjunction(pairs, n_atoms, xi, yi,
                                                  member):
    eng = _grown(pairs, n_atoms)
    sets = range(n_atoms, eng.size)
    xs = [sets[i % len(sets)] for i in xi]
    ys = [j % eng.size for j in yi]
    if member and any(eng.elements_of(x) for x in xs):
        # a y that some x already holds
        ys.append(next(eng.elements_of(x)[-1] for x in xs
                       if eng.elements_of(x)))
    size = eng.size
    named = eng.adjoined_interned(xs, ys)
    assert eng.size == size  # the lookup interns nothing
    got = list(eng.adjoin_level(xs, ys))
    assert len(got) == len(xs) * len(ys)
    _assert_adjunctions(eng, xs, ys, got)
    # the lookup holds every pair, y not in x, that the adjunction
    # resolves to an id interned before it, and no other pair
    assert named == _old_pairs(eng, xs, ys, got, size)


def _old_pairs(eng, xs, ys, got, size):
    """{x: {y: S}} for the pairs of ``got``, y not in x, that name an id
    S below ``size``."""
    pairs = {}
    for (x, y), sid in zip(itertools.product(xs, ys), got):
        if sid < size and y not in eng.elements_of(x):
            pairs.setdefault(x, {})[y] = sid
    return pairs


def test_adjoin_level_members_and_outside_elements():
    eng = SetEngine(n_atoms=1)
    e = eng.intern_sorted_ids(())
    one = intern(eng, read("{{}}"))
    x = intern(eng, read("{u1,{},{{}}}"))
    ys = [e, one, intern(eng, read("{{{}}}"))]  # x's element u1 is not a y
    got = list(eng.adjoin_level([x, e], ys))
    assert got[:2] == [x, x]                   # y already a member
    assert eng.format_id(got[2]) == "{u1,{},{{}},{{{}}}}"
    assert got[3:] == [intern(eng, frozenset([as_set(eng, y)])) for y in ys]
    with pytest.raises(ValueError, match="atom"):
        list(eng.adjoin_level([0], ys))


def _chain():
    """The chain {}, {{}}, ... up to rank PARSE_DEPTH_LIMIT - 1, and a
    few sets of small rank beside it."""
    eng = SetEngine(n_atoms=1)
    chain = [eng.intern_sorted_ids(())]
    while len(chain) < PARSE_DEPTH_LIMIT:
        chain.append(eng.intern_sorted_ids((chain[-1],)))
    intern(eng, read("{u1,{}}"))
    intern(eng, read("{{},{{}}}"))
    return eng, chain


@given(st.lists(st.integers(0, PARSE_DEPTH_LIMIT + 1), min_size=1,
                max_size=4),
       st.lists(st.integers(PARSE_DEPTH_LIMIT - 6, PARSE_DEPTH_LIMIT - 2),
                max_size=6),
       st.integers(0, 6))
def test_adjoin_level_refusal_leaves_engine_consistent(xi, yi, at):
    eng, chain = _chain()
    sets = range(eng.n_atoms, eng.size)
    xs = [sets[i % len(sets)] for i in xi]
    ys = [chain[j] for j in yi]
    ys.insert(at % (len(ys) + 1), chain[-1])  # no set holds the top
    got = []
    with pytest.raises(ValueError, match="nested deeper"):
        got.extend(eng.adjoin_level(xs, ys))
    assert len(got) == ys.index(chain[-1])  # refused at x's first top
    _assert_adjunctions(eng, xs, ys, got)
    assert max(eng._rank) == PARSE_DEPTH_LIMIT - 1
    assert len(eng._intern) + eng.n_atoms == eng.size  # nothing half-interned

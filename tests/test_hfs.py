import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from adjhier import hfs
from adjhier.errors import ResourceCapError
from adjhier.hfs import PARSE_DEPTH_LIMIT, SetEngine
from adjhier.oracle import build_cumulative, build_levels
from adjhier.variants import BoundFunction, HierarchySpec


@pytest.fixture()
def eng():
    return SetEngine()


def test_empty_set_is_unique_and_flat(eng):
    e = eng.empty()
    assert e.cardinality == 0
    assert e.id == eng.empty().id
    assert e.rank == 0
    assert e.ark == 0


def test_adjoin_examples(eng):
    e = eng.empty()
    s1 = e.adjoin(e)                     # {{}}
    assert str(s1) == "{{}}"
    assert s1.adjoin(e) == s1            # absorption: {} already a member
    s2 = s1.adjoin(s1)
    assert str(s2) == "{{},{{}}}"
    assert s2.cardinality == 2


def test_rank_examples(eng):
    assert eng.parse("{}").rank == 0
    assert eng.parse("{{}}").rank == 1
    assert eng.parse("{{},{{}}}").rank == 2


def test_ark_examples(eng):
    assert eng.parse("{}").ark == 0
    assert eng.parse("{{{}}}").ark == 2
    assert eng.parse("{{},{{}}}").ark == 2


def test_ark_against_level_membership():
    # the recursive formula must say "first level that contains the set"
    ls = build_levels(HierarchySpec.plain(), 2)
    eng = ls.engine
    nested = eng.parse("{{{}}}")          # in level 2, not in level 1
    assert ls.contains(2, nested.id) and not ls.contains(1, nested.id)
    pair = eng.parse("{{},{{}}}")
    assert ls.contains(2, pair.id) and not ls.contains(1, pair.id)


def test_ackermann_code_examples(eng):
    assert eng.parse("{}").code() == 0
    assert eng.parse("{{}}").code() == 1
    assert eng.parse("{{},{{}}}").code() == 3


def test_decode_examples(eng):
    assert str(eng.wrap(eng.decode_id(0))) == "{}"
    assert str(eng.wrap(eng.decode_id(3))) == "{{},{{}}}"
    # 4 = 2**2, so the single element is the set coded 2
    four = eng.wrap(eng.decode_id(4))
    assert four.cardinality == 1
    assert four.elements[0].code() == 2
    assert str(four) == "{{{{}}}}"
    other = SetEngine()
    assert other.wrap(other.decode_id(4)).code() == 4


def test_code_roundtrip_small_exhaustive(eng):
    for n in range(4096):
        assert eng.code_of_id(eng.decode_id(n)) == n


def test_code_roundtrip_oracle_universe():
    ls = build_levels(HierarchySpec.plain(), 5)
    eng = ls.engine
    for sid in ls.members(5):
        code = eng.code_of_id(sid)
        assert eng.decode_id(code) == sid


def test_codes_are_monotone_in_canonical_order(eng):
    ids = [eng.decode_id(n) for n in range(256)]
    for a, b in itertools.combinations(range(256), 2):
        assert eng.compare_ids(ids[a], ids[b]) < 0


def test_order_agrees_with_codes_on_long_prefix(eng):
    # consecutive agreement extends to the whole range by transitivity
    prev = eng.decode_id(0)
    for n in range(1, 20000):
        cur = eng.decode_id(n)
        assert eng.compare_ids(prev, cur) < 0
        prev = cur


@given(st.sets(st.integers(min_value=0, max_value=2 ** 64), min_size=2, max_size=6))
def test_codes_monotone_random(codes):
    eng = SetEngine()
    pairs = sorted(codes)
    ids = [eng.decode_id(n) for n in pairs]
    for i in range(len(ids) - 1):
        assert eng.compare_ids(ids[i], ids[i + 1]) < 0


def test_rank_never_exceeds_ark():
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for sid in ls.members(4):
        assert eng.rank_id(sid) <= eng.ark_id(sid)


def test_adjoin_ark_bounds():
    # max(ark x, ark y) <= ark(x u {y}) <= max + 1
    ls = build_levels(HierarchySpec.plain(), 3)
    eng = ls.engine
    mem = ls.members(3)
    for x in mem:
        for y in mem:
            top = max(eng.ark_id(x), eng.ark_id(y))
            got = eng.ark_id(eng.adjoin_ids(x, y))
            assert top <= got <= top + 1


def test_adjoin_ark_exact_when_y_dominates():
    # ark x <= ark y and y not a member force ark(x u {y}) = ark y + 1
    ls = build_levels(HierarchySpec.plain(), 3)
    eng = ls.engine
    mem = ls.members(3)
    for x in mem:
        for y in mem:
            if eng.ark_id(x) <= eng.ark_id(y) and y not in eng.elements_of(x):
                assert eng.ark_id(eng.adjoin_ids(x, y)) == eng.ark_id(y) + 1


def test_adjoin_ark_exact_when_x_inside_ys_level():
    # x inside level ark(y) and y fresh force ark = max + 1
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    mem = ls.members(3)
    for x in mem:
        for y in mem:
            lvl = ls.levels[eng.ark_id(y)]
            if (y not in eng.elements_of(x)
                    and all(lvl >> e & 1 for e in eng.elements_of(x))):
                expect = max(eng.ark_id(x), eng.ark_id(y)) + 1
                assert eng.ark_id(eng.adjoin_ids(x, y)) == expect


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


def test_code_bit_budget_refusal(monkeypatch):
    monkeypatch.setattr(hfs, "DEFAULT_CODE_BIT_BUDGET", 16)
    eng = SetEngine()
    big = eng.decode_id(40000)  # needs 40001 bits to re-encode its parent
    with pytest.raises(ResourceCapError):
        eng.code_of_id(eng.intern_sorted_ids((big,)))
    with pytest.raises(ResourceCapError):
        eng.decode_id(1 << 20)


def test_parser_whitespace_and_errors(eng):
    assert eng.parse(" { { } , { { } } } ").id == eng.parse("{{},{{}}}").id
    # duplicates collapse
    assert eng.parse("{{},{}}").cardinality == 1
    for bad in ("", "{", "{}}", "{,}", "{{}", "a"):
        with pytest.raises(ValueError):
            eng.parse(bad)


def test_parser_depth_limit(eng):
    deepest = eng.parse("{" * PARSE_DEPTH_LIMIT + "}" * PARSE_DEPTH_LIMIT)
    assert deepest.rank == PARSE_DEPTH_LIMIT - 1
    assert eng.parse(str(deepest)) == deepest
    for depth in (PARSE_DEPTH_LIMIT + 1, 5000):
        with pytest.raises(ValueError,
                           match=f"offset {PARSE_DEPTH_LIMIT}$"):
            eng.parse("{" * depth + "}" * depth)


def test_engine_refuses_sets_deeper_than_parse_accepts(eng, monkeypatch):
    chain = [eng.empty().id]
    with pytest.raises(ValueError, match="nested deeper"):
        for _ in range(3000):
            chain.append(eng.adjoin_ids(eng.empty().id, chain[-1]))
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

    for name in ("format_id", "code_of_id"):
        monkeypatch.setattr(SetEngine, name, tracked(getattr(SetEngine, name)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * PARSE_DEPTH_LIMIT)  # room for wrappers
    try:
        text = eng.format_id(chain[-1])
        with pytest.raises(ResourceCapError):
            eng.code_of_id(chain[-1])  # a deep chain's code is a tower of 2s
    finally:
        sys.setrecursionlimit(limit)
    assert text == "{" * PARSE_DEPTH_LIMIT + "}" * PARSE_DEPTH_LIMIT
    assert depth[1] == PARSE_DEPTH_LIMIT


def test_interned_chain_stops_at_the_same_rank(eng):
    # intern_sorted_ids reads the rank off the elements, adjoin_ids off
    # x and y; both refuse at the same depth
    chain = [eng.empty().id]
    with pytest.raises(ValueError, match="nested deeper"):
        for _ in range(3000):
            chain.append(eng.intern_sorted_ids((chain[-1],)))
    assert len(chain) == PARSE_DEPTH_LIMIT
    assert eng.rank_id(chain[-1]) == PARSE_DEPTH_LIMIT - 1
    assert_bookkeeping_by_definition(eng)  # the lazy ark recurses as deep


def test_parser_reads_back_every_printed_member():
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for sid in ls.members(4):
        assert eng.parse(eng.format_id(sid)).id == sid


def test_printer_emits_canonical_order(eng):
    s = eng.parse("{{{}},{}}")
    assert str(s) == "{{},{{}}}"
    assert SetEngine().parse(str(s)).code() == s.code()


def test_cross_engine_adjoin_rejected(eng):
    other = SetEngine()
    with pytest.raises(ValueError):
        eng.empty().adjoin(other.empty())


def test_atoms_are_opaque():
    eng = SetEngine(n_atoms=2)
    a0, a1 = eng.atom(0), eng.atom(1)
    assert a0.is_atom and a0.rank == 0 and a0.ark == 0
    assert str(a0) == "u1" and str(a1) == "u2"
    with pytest.raises(ValueError):
        a0.adjoin(eng.empty())
    s = eng.empty().adjoin(a0)
    assert s.cardinality == 1
    with pytest.raises(ValueError):
        s.code()
    with pytest.raises(ValueError):
        a0.code()


def recomputed(eng):
    """(rank, ark, atom flag, cardinality) of every interned id, from its
    elements by definition; elements are interned before their sets."""
    props = []
    for sid in range(eng.size):
        if eng.is_atom(sid):
            props.append((0, 0, True, 0))
            continue
        elems = eng.elements_of(sid)
        sub = [props[e] for e in elems]
        arks = sorted(p[1] for p in sub)
        props.append((
            1 + max((p[0] for p in sub), default=-1),
            _ark_formula(arks) if arks else 0,
            any(p[2] for p in sub),
            len(elems)))
    return props


def assert_bookkeeping_by_definition(eng):
    size = eng.size
    for sid, want in enumerate(recomputed(eng)):
        got = (eng.rank_id(sid), eng.ark_id(sid), eng.contains_atom(sid),
               eng.cardinality_id(sid))
        assert got == want, (sid, eng.format_id(sid))
        if not eng.is_atom(sid):
            elems = eng.elements_of(sid)
            assert list(elems) == eng.sort_ids(set(elems))
            assert eng.intern_sorted_ids(elems) == sid
    assert eng.size == size  # every element tuple was interned once


@pytest.mark.parametrize("build", [
    lambda: build_levels(HierarchySpec.plain(), 5),
    lambda: build_levels(HierarchySpec.atoms(2), 3),
    lambda: build_levels(HierarchySpec.bounded(BoundFunction("sqrt")), 27),
    lambda: build_levels(HierarchySpec.min_bounded(), 5),
    lambda: build_cumulative(4),
], ids=["plain-5", "atoms-2-3", "bounded-sqrt-27", "minbounded-5",
        "cumulative-4"])
def test_oracle_bookkeeping_matches_definition(build):
    assert_bookkeeping_by_definition(build().engine)


def test_parsed_and_decoded_bookkeeping_matches_definition(eng):
    for n in range(3000):
        eng.decode_id(n)
    for text in ("{{{{{}}}},{{},{{}}}}", "{" * 40 + "}" * 40,
                 "{{{{{}}},{}},{{{}},{{{}}}},{}}"):
        eng.parse(text)
    atoms = SetEngine(n_atoms=2)
    s = atoms.adjoin_ids(atoms.empty().id, 0)
    atoms.adjoin_ids(atoms.adjoin_ids(atoms.empty().id, s), 1)
    for e in (eng, atoms):
        assert_bookkeeping_by_definition(e)


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                max_size=60))
def test_random_adjunctions_match_definition(pairs):
    eng = SetEngine(n_atoms=2)
    for i, j in pairs:
        x, y = i % eng.size, j % eng.size
        if eng.is_atom(x):
            eng.intern_sorted_ids(tuple(eng.sort_ids({x, y})))
        else:
            eng.adjoin_ids(x, y)
    assert_bookkeeping_by_definition(eng)


def _grown(pairs, n_atoms=2):
    """An engine grown by random adjunctions, atoms allowed as elements."""
    eng = SetEngine(n_atoms=n_atoms)
    for i, j in pairs:
        x, y = i % eng.size, j % eng.size
        if eng.is_atom(x):
            eng.intern_sorted_ids(tuple(eng.sort_ids({x, y})))
        else:
            eng.adjoin_ids(x, y)
    return eng


def _pairwise(eng, xs, ys, batch):
    """Ids of every x with y added, x-major, and the refusal message if
    one stopped the pairs."""
    got = []
    try:
        if batch:
            got.extend(eng.adjoin_level(xs, ys))
        else:
            for x in xs:
                for y in ys:
                    got.append(eng.adjoin_ids(x, y))
    except ValueError as exc:
        return got, str(exc)
    return got, None


def _state(eng):
    return (eng._elems, eng._rank, eng._has_atom, list(eng._intern.items()))


def _assert_batch_equals_pairwise(build, xs, ys):
    """Both routes on two equal engines; returns the batched route's ids
    and refusal, and its engine."""
    batch, single = build(), build()
    got = _pairwise(batch, xs, ys, True)
    assert got == _pairwise(single, xs, ys, False)
    assert _state(batch) == _state(single)
    assert_bookkeeping_by_definition(batch)
    return got, batch


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                max_size=40),
       st.integers(0, 2),
       st.lists(st.integers(0, 63), max_size=8),
       st.lists(st.integers(0, 63), max_size=8),
       st.booleans())
def test_adjoin_level_equals_adjoin_ids(pairs, n_atoms, xi, yi, member):
    probe = _grown(pairs, n_atoms)
    sets = [s for s in range(probe.size) if not probe.is_atom(s)]
    xs = [sets[i % len(sets)] for i in xi]
    ys = [j % probe.size for j in yi]
    if member and any(probe.elements_of(x) for x in xs):
        # a y that some x already holds
        ys.append(next(probe.elements_of(x)[-1] for x in xs
                       if probe.elements_of(x)))
    _assert_batch_equals_pairwise(lambda: _grown(pairs, n_atoms), xs, ys)


def test_adjoin_level_members_and_outside_elements():
    eng = SetEngine(n_atoms=1)
    e = eng.empty().id
    one = eng.adjoin_ids(e, e)                  # {{}}
    x = eng.adjoin_ids(eng.adjoin_ids(one, 0), one)  # {u1,{},{{}}}
    ys = [e, one, eng.adjoin_ids(e, one)]      # x's element u1 is not a y
    got = list(eng.adjoin_level([x, e], ys))
    assert got[:2] == [x, x]                   # y already a member
    assert eng.format_id(got[2]) == "{u1,{},{{}},{{{}}}}"
    assert got[3:] == [eng.adjoin_ids(e, y) for y in ys]
    with pytest.raises(ValueError, match="atom"):
        list(eng.adjoin_level([0], ys))


def _chain():
    """The chain {}, {{}}, ... up to rank PARSE_DEPTH_LIMIT - 1, and a
    few sets of small rank beside it."""
    eng = SetEngine(n_atoms=1)
    chain = [eng.empty().id]
    while len(chain) < PARSE_DEPTH_LIMIT:
        chain.append(eng.intern_sorted_ids((chain[-1],)))
    eng.adjoin_ids(chain[1], 0)
    eng.adjoin_ids(chain[2], chain[0])
    return eng, chain


@given(st.lists(st.integers(0, PARSE_DEPTH_LIMIT + 1), min_size=1,
                max_size=4),
       st.lists(st.integers(PARSE_DEPTH_LIMIT - 6, PARSE_DEPTH_LIMIT - 2),
                max_size=6),
       st.integers(0, 6))
def test_adjoin_level_refusal_leaves_engine_consistent(xi, yi, at):
    probe, chain = _chain()
    sets = [s for s in range(probe.size) if not probe.is_atom(s)]
    xs = [sets[i % len(sets)] for i in xi]
    ys = [chain[j] for j in yi]
    ys.insert(at % (len(ys) + 1), chain[-1])  # no set holds the top
    (got, refusal), eng = _assert_batch_equals_pairwise(
        lambda: _chain()[0], xs, ys)
    assert refusal and "nested deeper" in refusal
    assert len(got) == ys.index(chain[-1])  # refused at x's first top
    assert max(eng._rank) == PARSE_DEPTH_LIMIT - 1
    assert len(eng._intern) + eng.n_atoms == eng.size  # nothing half-interned

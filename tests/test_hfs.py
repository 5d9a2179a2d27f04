import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from adjhier.errors import ResourceCapError
from adjhier.hfs import (PARSE_DEPTH_LIMIT, SetEngine, decode_ackermann,
                         empty_set, parse_set)
from adjhier.oracle import build_levels
from adjhier.variants import HierarchySpec


@pytest.fixture()
def eng():
    return SetEngine()


def test_empty_set_is_unique_and_flat(eng):
    e = eng.empty()
    assert e.cardinality == 0
    assert e.id == eng.empty().id
    assert e.rank == 0
    assert e.ark == 0
    assert empty_set() == empty_set()


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
    assert decode_ackermann(4).code() == 4


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


def test_code_bit_budget_refusal():
    eng = SetEngine(code_bit_budget=16)
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


def test_parser_reads_back_every_printed_member():
    ls = build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for sid in ls.members(4):
        assert eng.parse(eng.format_id(sid)).id == sid


def test_printer_emits_canonical_order(eng):
    s = eng.parse("{{{}},{}}")
    assert str(s) == "{{},{{}}}"
    assert parse_set(str(s)).code() == s.code()


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

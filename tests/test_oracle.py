import ast
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from adjhier import oracle, verify
from adjhier.bounded import BoundFunction
from adjhier.errors import ResourceCapError
from adjhier.variants import HierarchySpec

from golden import ATOM_SIZES, CARD_PROFILES, PLAIN_A, RANK_PROFILES


@pytest.fixture(scope="module")
def plain5():
    return oracle.build_levels(HierarchySpec.plain(), 5)


def codes(ls, n):
    return {ls.engine.code_of_id(s) for s in ls.members(n)}


def test_plain_level_sizes(plain5):
    assert plain5.sizes() == PLAIN_A[:6]
    assert oracle.build_levels(HierarchySpec.plain(), 3).sizes() == [1, 2, 4, 12]


def test_level_two_equals_third_powerset_level(plain5):
    cum = oracle.build_cumulative(3)
    assert codes(plain5, 2) == codes(cum, 3)


def test_atoms_level_sizes():
    ls = oracle.build_levels(HierarchySpec.atoms(1), 2)
    assert ls.sizes() == ATOM_SIZES[1][:3] == [2, 4, 11]
    assert ls.atom_ids == (0,)
    assert all(ls.contains(n, 0) for n in range(3))  # atoms sit in every level


def test_cumulative_levels():
    ls = oracle.build_cumulative(4)
    assert ls.sizes() == [0, 1, 2, 4, 16]
    third = sorted(ls.engine.format_id(s) for s in ls.members(3))
    assert third == sorted(["{}", "{{}}", "{{{}}}", "{{},{{}}}"])


def test_levels_are_nested_and_contain_empty(plain5):
    builds = [
        plain5,
        oracle.build_levels(HierarchySpec.atoms(2), 3),
        oracle.build_levels(HierarchySpec.bounded(BoundFunction("sqrt")), 10),
        oracle.build_levels(HierarchySpec.min_bounded(), 5),
    ]
    for ls in builds:
        empty = ls.engine.empty().id
        for n in range(ls.depth):
            assert ls.levels[n] & ~ls.levels[n + 1] == 0
            assert ls.contains(n, empty)


def test_partition_count_examples(plain5):
    assert oracle.partition_counts(plain5, 3, 2) == 8
    assert oracle.partition_counts(plain5, 2, 0) == 0
    total = 1 + sum(oracle.partition_counts(plain5, n, n - 1)
                    for n in range(1, 6))
    assert total == PLAIN_A[5]


def test_partition_split_matches_recurrence_shape(plain5):
    # the k-split refines the count: k = number of elements new at level m
    for n in range(1, 6):
        for m in range(n):
            split = oracle.partition_split(plain5, n, m)
            assert sum(split.values()) == oracle.partition_counts(plain5, n, m)
            assert all(0 <= k <= n - m for k in split)


def test_profile_examples(plain5):
    assert oracle.profile_counts(plain5, 4, "rank") == dict(enumerate(RANK_PROFILES[4]))
    assert oracle.profile_counts(plain5, 4, "cardinality") == dict(enumerate(CARD_PROFILES[4]))
    assert oracle.profile_counts(plain5, 0, "rank") == {0: 1}
    with pytest.raises(ValueError):
        oracle.profile_counts(plain5, 1, "ark")


def test_ark_lemma_small_and_trivial(plain5):
    shallow = oracle.build_levels(HierarchySpec.plain(), 3)
    report = oracle.verify_ark_lemma(shallow)
    assert report.ok and report.total == 12
    assert plain5.engine.ark_id(plain5.engine.empty().id) == 0


def test_subset_closure_and_membership_bounds():
    # every subset of a level member is itself a member, cardinalities
    # stay at most n, and elements sit one level down
    ls = oracle.build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for n in range(1, 5):
        for sid in ls.members(n):
            elems = eng.elements_of(sid)
            assert len(elems) <= n
            assert all(ls.contains(n - 1, e) for e in elems)
            for k in range(len(elems) + 1):
                for sub in itertools.combinations(elems, k):
                    assert ls.contains(n, eng.intern_sorted_ids(sub))


def test_new_members_have_removal_witness():
    # x new at level n has some y in x with x minus {y} already at n-1
    ls = oracle.build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for n in range(1, 5):
        for sid in ls.new_members(n):
            elems = eng.elements_of(sid)
            assert any(
                ls.contains(n - 1, eng.intern_sorted_ids(
                    elems[:i] + elems[i + 1:]))
                for i in range(len(elems)))


def test_atoms_u0_reduces_to_plain(plain5):
    ls = oracle.build_levels(HierarchySpec.atoms(0), 4)
    plain = oracle.build_levels(HierarchySpec.plain(), 4)
    assert ls.sizes() == plain.sizes()
    for n in range(5):
        assert codes(ls, n) == codes(plain, n)


def test_bounded_identity_reduces_to_plain(plain5):
    ls = oracle.build_levels(
        HierarchySpec.bounded(BoundFunction("identity")), 4)
    assert ls.sizes() == PLAIN_A[:5]
    plain = oracle.build_levels(HierarchySpec.plain(), 4)
    for n in range(5):
        assert codes(ls, n) == codes(plain, n)


def test_minbounded_powerset_law():
    ls = oracle.build_levels(HierarchySpec.min_bounded(), 5)
    assert ls.sizes() == [1, 2, 4, 12, 16, 144]
    eng = ls.engine
    for n in range(6):
        idx = ls.size(n)
        if idx > ls.depth:
            continue
        members = set(ls.members(n))
        expected = {
            eng.intern_sorted_ids(tuple(eng.sort_ids(sub)))
            for k in range(len(members) + 1)
            for sub in itertools.combinations(sorted(members), k)
        }
        assert set(ls.members(idx)) == expected


def test_depth_caps_and_overrides():
    with pytest.raises(ResourceCapError):
        oracle.build_levels(HierarchySpec.plain(), 6)
    with pytest.raises(ResourceCapError):
        oracle.build_cumulative(6)
    # four atoms inflate level 3 so far that the size bound refuses level 4
    with pytest.raises(ResourceCapError):
        oracle.build_levels(HierarchySpec.atoms(4), 4)
    got = oracle.build_levels(HierarchySpec.atoms(4), 3)
    assert got.sizes() == ATOM_SIZES[4][:4]


def test_minbounded_verifies_to_depth_12():
    # the size bound admits depth 12 (level 12 holds 4096 = 2**12 sets)
    ls, checks = verify.verify_minbounded(12)
    assert ls.depth == 12
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    law = next(c for c in checks if c.name.startswith("power-set law"))
    assert law.detail == "verified at indices [1, 2, 4, 12]"


def test_bounded_level_size_cap():
    err = None
    try:
        oracle.build_levels(
            HierarchySpec.bounded(BoundFunction("identity")), 5,
            level_size_cap=100)
    except ResourceCapError as exc:
        err = exc
    assert err is not None and err.level == 4 and err.cap == 100


def test_level_lines_and_summary(plain5):
    lines = oracle.level_lines(plain5, 2)
    assert lines == ["{}", "{{}}", "{{{}}}", "{{},{{}}}"]
    doc = oracle.summary(plain5, [{"name": "x", "ok": True, "detail": ""}])
    assert doc["spec"] == {"kind": "plain"}
    assert doc["sizes"] == [str(v) for v in PLAIN_A[:6]]
    json.dumps(doc)  # JSON-serializable


def clear_lowest_bits(v):
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


@given(st.one_of(
    st.integers(0, 1 << 20).map(lambda k: 1 << k),
    st.integers(0, 1 << 4096),
    st.sets(st.integers(0, (1 << 20) - 1), max_size=40).map(
        lambda bits: sum(1 << b for b in bits))))
@example(0)
def test_iter_bits_matches_clear_lowest_bit(v):
    assert list(oracle.iter_bits(v)) == list(clear_lowest_bits(v))


def raw_held(ls, ids, m):
    lv = ls.levels[m]
    return sum(all(lv >> e & 1 for e in ls.engine.elements_of(sid))
               for sid in ids)


def raw_split(ls, n, m):
    lv, prev = ls.levels[m], ls.levels[m - 1] if m >= 1 else 0
    split = {}
    for sid in ls.new_members(n):
        elems = ls.engine.elements_of(sid)
        if all(lv >> e & 1 for e in elems):
            k = sum(1 for e in elems if (lv & ~prev) >> e & 1)
            split[k] = split.get(k, 0) + 1
    return split


def assert_reads_match_raw_levels(ls):
    eng = ls.engine
    for n in range(ls.depth + 1):
        assert [ls.contains(n, sid) for sid in range(eng.size + 2)] == [
            bool(ls.levels[n] >> sid & 1) for sid in range(eng.size + 2)]
        sets = [sid for sid in ls.members(n) if not eng.is_atom(sid)]
        for m in range(ls.depth + 1):
            assert ls.held(sets, m) == raw_held(ls, sets, m)
        for m in range(n):
            assert (oracle.partition_counts(ls, n, m)
                    == raw_held(ls, ls.new_members(n), m))
            assert oracle.partition_split(ls, n, m) == raw_split(ls, n, m)


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.plain(), 4),
    (HierarchySpec.atoms(1), 3),
    (HierarchySpec.bounded(BoundFunction("half")), 7),
    (HierarchySpec.min_bounded(), 4)])
def test_level_reads_match_raw_bit_tests(spec, n_max):
    assert_reads_match_raw_levels(oracle.build_levels(spec, n_max))


def test_level_reads_follow_appended_levels():
    # a build appends levels after the counts have been read, as the
    # minbounded source-level choice does
    full = oracle.build_levels(HierarchySpec.min_bounded(), 4)
    ls = oracle.LevelSets(full.spec, full.engine, full.levels[:3])
    for more in full.levels[3:]:
        assert_reads_match_raw_levels(ls)
        ls.levels.append(more)
    assert_reads_match_raw_levels(ls)


def test_oracle_imports_no_counting_code():
    # the oracle is an independent route: it shares no code with the
    # recurrences it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            internal.update([node.module] if node.module
                            else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "adjhier", node.module
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "adjhier" for a in node.names)
    assert internal == {"hfs", "errors", "variants"}

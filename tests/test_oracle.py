import ast
import itertools
import json
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from adjhier import oracle, verify
from adjhier.bounded import BoundFunction
from adjhier.cli import main
from adjhier.errors import ResourceCapError
from adjhier.hfs import SetEngine
from adjhier.variants import HierarchySpec

import hfs_reference as ref
from golden import ATOM_SIZES, CARD_PROFILES, PLAIN_A, RANK_PROFILES


@pytest.fixture(scope="module")
def plain5():
    return oracle.build_levels(HierarchySpec.plain(), 5)


def sets(ls, n):
    """Level n as reference sets, read off the members' notations."""
    return {ref.read(ls.engine.format_id(s)) for s in ls.members(n)}


def new_members(ls, n):
    """Members of level n absent from level n-1."""
    below = set(ls.members(n - 1)) if n else set()
    return [s for s in ls.members(n) if s not in below]


def test_plain_level_sizes(plain5):
    assert plain5.sizes() == PLAIN_A[:6]
    assert oracle.build_levels(HierarchySpec.plain(), 3).sizes() == [1, 2, 4, 12]


def test_level_two_equals_third_powerset_level(plain5):
    assert sets(plain5, 2) == ref.power_levels(3)[3]


def test_atoms_level_sizes():
    ls = oracle.build_levels(HierarchySpec.atoms(1), 2)
    assert ls.sizes() == ATOM_SIZES[1][:3] == [2, 4, 11]
    assert ls.atom_ids == (0,)
    assert all(0 in ls.members(n) for n in range(3))  # atoms in every level


def test_cumulative_levels():
    levels = ref.power_levels(4)
    assert [len(v) for v in levels] == [0, 1, 2, 4, 16]
    assert levels[3] == {ref.read(t) for t in ("{}", "{{}}", "{{{}}}",
                                               "{{},{{}}}")}


def test_levels_are_nested_and_contain_empty(plain5):
    builds = [
        plain5,
        oracle.build_levels(HierarchySpec.atoms(2), 3),
        oracle.build_levels(HierarchySpec.bounded(BoundFunction("sqrt")), 10),
        oracle.build_levels(HierarchySpec.min_bounded(), 5),
    ]
    for ls in builds:
        empty = ls.engine.intern_sorted_ids(())
        for n in range(ls.depth):
            assert ls.levels[n] & ~ls.levels[n + 1] == 0
            assert empty in ls.members(n)


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
    assert plain5.engine.ark_id(plain5.engine.intern_sorted_ids(())) == 0


def test_subset_closure_and_membership_bounds():
    # every subset of a level member is itself a member, cardinalities
    # stay at most n, and elements sit one level down
    ls = oracle.build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for n in range(1, 5):
        below, level = set(ls.members(n - 1)), set(ls.members(n))
        for sid in level:
            elems = eng.elements_of(sid)
            assert len(elems) <= n
            assert all(e in below for e in elems)
            for k in range(len(elems) + 1):
                for sub in itertools.combinations(elems, k):
                    assert eng.intern_sorted_ids(sub) in level


def test_new_members_have_removal_witness():
    # x new at level n has some y in x with x minus {y} already at n-1
    ls = oracle.build_levels(HierarchySpec.plain(), 4)
    eng = ls.engine
    for n in range(1, 5):
        below = set(ls.members(n - 1))
        for sid in new_members(ls, n):
            elems = eng.elements_of(sid)
            assert any(
                eng.intern_sorted_ids(elems[:i] + elems[i + 1:]) in below
                for i in range(len(elems)))


def test_atoms_u0_reduces_to_plain(plain5):
    ls = oracle.build_levels(HierarchySpec.atoms(0), 4)
    plain = oracle.build_levels(HierarchySpec.plain(), 4)
    assert ls.sizes() == plain.sizes()
    for n in range(5):
        assert sets(ls, n) == sets(plain, n)


def test_bounded_identity_reduces_to_plain(plain5):
    ls = oracle.build_levels(
        HierarchySpec.bounded(BoundFunction("identity")), 4)
    assert ls.sizes() == PLAIN_A[:5]
    plain = oracle.build_levels(HierarchySpec.plain(), 4)
    for n in range(5):
        assert sets(ls, n) == sets(plain, n)


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


@pytest.mark.parametrize("spec", [
    HierarchySpec.plain(), HierarchySpec.atoms(1),
    HierarchySpec.bounded(BoundFunction("half")),
    HierarchySpec.bounded(BoundFunction("identity")),
    HierarchySpec.min_bounded()], ids=str)
def test_every_shallow_depth_verifies(spec):
    # the deepest level adjoins members of the level just below it (plain
    # always, minbounded at depths 1-3), and a minbounded build reads the
    # element masks before it folds that level
    for n_max in range(5):
        _, checks = verify.verify(spec, n_max)
        assert all(c.ok for c in checks), (n_max, checks)


# Hand-made mutants of the oracle-side k-split expectation in verify.py,
# as (text, replacement): the k range one short, u left out of the
# trailing factor, g(m) read as m, and the base cell read as 1.
EXPECTATION_MUTANTS = [
    ("range(1, n - g):", "range(1, n - g - 1):"),
    ("(ls.size(g) - ls.spec.u)", "ls.size(g)"),
    ("_split_expectation(ls, n, m, g[m])", "_split_expectation(ls, n, m, m)"),
    ("return ls.size(0) if n == 0", "return 1 if n == 0"),
]


@pytest.mark.parametrize("old, new", EXPECTATION_MUTANTS,
                         ids=["k range", "u", "g(m)", "base cell"])
def test_expectation_mutants_fail_oracle_verify(old, new, monkeypatch,
                                                capsys):
    source = Path(verify.__file__).read_text()
    assert source.count(old) == 1
    mutant = types.ModuleType("adjhier.verify_mutant")
    mutant.__package__ = "adjhier"
    exec(compile(source.replace(old, new), verify.__file__, "exec"),
         mutant.__dict__)
    monkeypatch.setattr(verify, "verify", mutant.verify)
    codes, failed = [], set()
    for argv in ("atoms --u 1 --n 4", "bounded --f sqrt --n 27"):
        codes.append(main(["oracle-verify", "--variant", *argv.split()]))
        doc = json.loads(capsys.readouterr().out)
        failed.update(c["name"] for c in doc["checks"] if not c["ok"])
    assert 1 in codes and failed == {"k-split matches the three summands"}


def test_bounded_level_size_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_LEVEL_SIZE_CAP", 100)
    err = None
    try:
        oracle.build_levels(
            HierarchySpec.bounded(BoundFunction("identity")), 5)
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
    for sid in new_members(ls, n):
        elems = ls.engine.elements_of(sid)
        if all(lv >> e & 1 for e in elems):
            k = sum(1 for e in elems if (lv & ~prev) >> e & 1)
            split[k] = split.get(k, 0) + 1
    return split


def assert_reads_match_raw_levels(ls):
    eng = ls.engine
    for n in range(ls.depth + 1):
        assert ls.members(n) == [sid for sid in range(eng.size + 2)
                                 if ls.levels[n] >> sid & 1]
        held = ls.members(n)[eng.n_atoms:]  # the atoms lead every level
        for m in range(n):
            assert ls.level_held(n, m) == raw_held(ls, held, m)
        for m in range(n):
            assert (oracle.partition_counts(ls, n, m)
                    == raw_held(ls, new_members(ls, n), m))
            assert oracle.partition_split(ls, n, m) == raw_split(ls, n, m)


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.plain(), 4),
    (HierarchySpec.atoms(1), 3),
    (HierarchySpec.bounded(BoundFunction("half")), 7),
    (HierarchySpec.min_bounded(), 4)])
def test_level_reads_match_raw_bit_tests(spec, n_max):
    assert_reads_match_raw_levels(oracle.build_levels(spec, n_max))


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.plain(), 5),
    (HierarchySpec.atoms(2), 3),
    (HierarchySpec.bounded(BoundFunction("sqrt")), 27),
    (HierarchySpec.min_bounded(), 5)])
def test_levels_equal_or_of_adjoined_ids(spec, n_max):
    # the batched pass against the same adjunctions made one pair at a
    # time
    ls = oracle.build_levels(spec, n_max)
    eng = ls.engine
    ls.levels  # interns the folded deepest level
    size = eng.size
    for n in range(n_max):
        want = ls.levels[0]
        for x in ls.members(n)[spec.u:]:
            for y in ls.members(oracle._source(ls, n)):
                want |= 1 << next(eng.adjoin_level([x], [y]))
        assert ls.levels[n + 1] == want, n
    assert eng.size == size  # the replay interned nothing new


def top_reads(ls):
    """What the verifiers read of the deepest level: every level size, and
    for every m below it its new members and its members with all their
    elements in level m, and the new ones split by how many of their
    elements are new at level m."""
    n = ls.depth
    return (ls.sizes(),
            [oracle.partition_counts(ls, n, m) for m in range(n)],
            [ls.level_held(n, m) for m in range(n)],
            [oracle.partition_split(ls, n, m) for m in range(n)])


def reference_split(new, below, level):
    """The sets of ``new`` inside ``level``, counted by how many of their
    elements lie in ``level`` and not in ``below``."""
    split = {}
    for s in new:
        if s <= level:
            k = len(s - below)
            split[k] = split.get(k, 0) + 1
    return split


def reference_top_reads(want):
    """:func:`top_reads` of the reference levels ``want``."""
    n = len(want) - 1
    top = [s for s in want[n] if ref.is_set(s)]
    new = [s for s in top if s not in want[n - 1]] if n else top
    return ([len(v) for v in want],
            [sum(s <= want[m] for s in new) for m in range(n)],
            [sum(s <= want[m] for s in top) for m in range(n)],
            [reference_split(new, want[m - 1] if m else set(), want[m])
             for m in range(n)])


FOLD_CASES = [  # the oracle-verify bench argvs, atoms u=3 and minbounded 12
    (HierarchySpec.plain(), 5),
    (HierarchySpec.atoms(2), 4),
    (HierarchySpec.atoms(1), 4),
    (HierarchySpec.bounded(BoundFunction("half")), 9),
    (HierarchySpec.bounded(BoundFunction("sqrt")), 27),
    (HierarchySpec.bounded(BoundFunction("log2")), 17),
    (HierarchySpec.min_bounded(), 5),
    (HierarchySpec.atoms(3), 3),
    (HierarchySpec.min_bounded(), 12)]


@pytest.mark.parametrize("spec, n_max", FOLD_CASES, ids=str)
def test_folded_level_reads_equal_interned_level(spec, n_max):
    folded = oracle.build_levels(spec, n_max)
    size = folded.engine.size
    got = top_reads(folded)
    assert folded.engine.size == size  # the fold interned nothing
    interned = oracle.build_levels(spec, n_max)
    interned.levels  # interns the deepest level
    assert interned.engine.size > size or spec.kind == "bounded"
    members = interned.members(n_max)[spec.u:]
    assert got == (interned.sizes(),
                   [oracle.partition_counts(interned, n_max, m)
                    for m in range(n_max)],
                   [raw_held(interned, members, m) for m in range(n_max)],
                   [raw_split(interned, n_max, m) for m in range(n_max)])


@pytest.mark.parametrize("spec, n_max", FOLD_CASES + [
    (HierarchySpec.plain(), n) for n in range(1, 5)], ids=str)
def test_fold_record_equals_record_tallied_from_ids(spec, n_max):
    # a record, once made, is kept: a build's deepest level reads its
    # fold even once interned.  Levels of the same ids stored in a new
    # LevelSets tally that level's record from its ids instead.
    folded = oracle.build_levels(spec, n_max)
    reads = [top_reads] + [plain_top_reads] * (spec.kind == "plain")
    got = [read(folded) for read in reads]
    tallied = oracle.LevelSets(spec, folded.engine, folded.levels[:],
                               folded.atom_ids)
    assert tallied.depth == n_max
    assert [read(tallied) for read in reads] == got


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.plain(), 5), (HierarchySpec.atoms(1), 4),
    (HierarchySpec.bounded(BoundFunction("sqrt")), 27),
    (HierarchySpec.min_bounded(), 12)], ids=str)
def test_second_verify_pass_tallies_nothing(spec, n_max, monkeypatch):
    # every record is made once and kept, never rebuilt: a second read
    # pass of the verifier over the same levels tallies no set
    ls, checks = verify.verify(spec, n_max)
    tally, calls = oracle.LevelSets._tally, []
    monkeypatch.setattr(oracle, "build_levels", lambda *args: ls)
    monkeypatch.setattr(oracle.LevelSets, "_tally",
                        lambda self, *args: calls.append(args)
                        or tally(self, *args))
    assert verify.verify(spec, n_max) == (ls, checks)
    assert calls == []


def test_level_held_reads_lower_levels_only(plain5):
    # level n holds at most size(n) sets, so no caller asks for m >= n
    for n, m in [(5, 5), (3, 4), (0, 0), (2, -1), (6, 5)]:
        with pytest.raises(IndexError):
            plain5.level_held(n, m)
    # level 5 holds every subset of levels 0-2, 480 of the 4,096 subsets
    # of level 3, and only subsets of level 4
    assert [plain5.level_held(5, m) for m in range(5)] == [
        2, 4, 16, 480, PLAIN_A[5]]


def plain_top_reads(ls):
    """What the plain checks read of the deepest level: its rank and
    cardinality profiles and the ark lemma's outcome."""
    n = ls.depth
    report = oracle.verify_ark_lemma(ls)
    return (oracle.profile_counts(ls, n, "rank"),
            oracle.profile_counts(ls, n, "cardinality"),
            (report.total, report.ok, report.mismatches))


@pytest.mark.parametrize("n_max", range(1, 6))
def test_folded_plain_profiles_and_ark_equal_interned_level(n_max):
    ls = oracle.build_levels(HierarchySpec.plain(), n_max)
    size = ls.engine.size
    got = plain_top_reads(ls)
    assert ls.engine.size == size  # the fold interned nothing
    ls.levels  # interns the deepest level
    assert ls.engine.size == PLAIN_A[n_max] > size
    assert got == plain_top_reads(ls)
    assert got[0] == dict(enumerate(RANK_PROFILES[n_max]))


def test_fold_names_the_fresh_sets_that_fail_the_ark_lemma(monkeypatch):
    # an ark helper one too high on three-element sets: the fold reports
    # each such fresh set of level 5 under the notation format_id gives
    # it once interned
    ark_of = oracle.ark_of
    monkeypatch.setattr(oracle, "ark_of",
                        lambda arks: ark_of(arks) + (len(arks) == 3))
    ls = oracle.build_levels(HierarchySpec.plain(), 5)
    report = oracle.verify_ark_lemma(ls)
    assert ls.engine.size == 112
    assert not report.ok and report.total == PLAIN_A[5]
    want = ref.levels(5)
    fresh = {s for s in want[5] - want[4] if len(s) == 3}
    assert len(report.mismatches) == len(fresh) > 0
    assert {ref.read(name) for name, _, _ in report.mismatches} == fresh
    assert {(first, ark) for _, first, ark in report.mismatches} == {(5, 6)}
    eng = ls.engine
    ls.levels
    assert {name for name, _, _ in report.mismatches} == {
        eng.format_id(sid) for sid in range(112, eng.size)
        if eng.cardinality_id(sid) == 3}


def _universe(n_atoms, subsets):
    """An engine holding the sets each list of indices picks, in turn,
    from the ids interned before it."""
    eng = SetEngine(n_atoms=n_atoms)
    for picks in subsets:
        elems = {i % eng.size for i in picks}
        eng.intern_sorted_ids(tuple(eng.sort_ids(elems)))
    return eng


@given(st.integers(0, 2),
       st.lists(st.lists(st.integers(0, 40), max_size=4), max_size=25),
       st.sets(st.integers(0, 40), max_size=8),
       st.sets(st.integers(0, 40), max_size=8))
# y in x: {{}} holds its only y, {}, and comes from no other pair
@example(0, [[0]], {1}, {0})
# a non-canonical fresh pair: {u1,u2}, not interned, comes from
# ({u1}, u2) and from ({u2}, u1), which is skipped
@example(2, [[0], [1]], {1, 2}, {0, 1})
# a canonical pair naming an interned set: ({}, {}) names {{}}, held by
# level 1
@example(0, [[0]], {0, 1}, {0})
# a non-canonical pair naming an interned set: ({u2}, u1) names the
# interned {u1,u2}, which the canonical ({u1}, u2) names too
@example(2, [[0], [1], [0, 1]], {1, 2}, {0, 1})
def test_fold_of_any_pairs_equals_their_interned_level(n_atoms, subsets,
                                                       xi, yi):
    # the xs and ys need not come from nested levels: x need not arise
    # from any other pair, and a set may already be interned
    eng = _universe(n_atoms, subsets)
    sets = range(n_atoms, eng.size)
    xs = sorted({sets[i % len(sets)] for i in xi})
    ys = sorted({i % eng.size for i in yi})
    base = (1 << n_atoms + 1) - 1
    below = [base, base | sum(1 << i for i in {*xs, *ys})]
    spec, atoms = HierarchySpec.atoms(n_atoms), tuple(range(n_atoms))
    folded = oracle.LevelSets(spec, eng, below[:], atoms)
    folded._fold_top(xs, ys)
    size = eng.size
    got = top_reads(folded)
    assert eng.size == size
    # the same levels, the deepest interned, whose record is tallied
    # from its ids
    interned = oracle.LevelSets(spec, eng, folded.levels[:], atoms)
    assert got == top_reads(interned)


@pytest.mark.parametrize("spec, n_max", [
    (HierarchySpec.plain(), 6), (HierarchySpec.atoms(1), 5),
    (HierarchySpec.atoms(3), 4)], ids=str)
def test_fold_verifies_one_level_deeper_without_the_cap(spec, n_max,
                                                         monkeypatch):
    # the fold costs |xs| times the y-classes, not |xs| * |ys| pairs: with
    # the size cap lifted, level 6 of plain (135,717,904 sets), level 5
    # of atoms u=1 (44,661,920) and level 4 of atoms u=3 (785,834)
    # verify in well under 2 s, and none of their sets is interned
    monkeypatch.setattr(oracle, "DEFAULT_LEVEL_SIZE_CAP", 1 << 40)
    start = time.monotonic()
    ls, checks = verify.verify(spec, n_max)
    elapsed = time.monotonic() - start
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    want = PLAIN_A if spec.kind == "plain" else ATOM_SIZES[spec.u]
    assert ls.sizes() == want[:n_max + 1]
    assert ls.engine.size == ls.size(n_max - 1)  # the levels are nested
    assert elapsed < 2, elapsed


# Hand-made mutants of the fold in oracle.py, as (text, replacement): a
# y in x counted as a fresh set, a pair naming an interned set counted
# as a fresh set too, and a skipped pair that names an interned set
# marked and counted away as if it were canonical.
FOLD_MUTANTS = [
    ("for y in [*own, *bad]:", "for y in bad:"),
    ("            if y not in bad:\n                by_y[key_of[y]] -= 1\n",
     "            if y not in bad:\n"),
    ("            if y not in bad:\n", "            if True:\n"),
]


@pytest.mark.parametrize("old, new", FOLD_MUTANTS,
                         ids=["y in x", "interned pair", "non-canonical"])
def test_fold_mutants_fail_oracle_verify(old, new, monkeypatch):
    source = Path(oracle.__file__).read_text()
    assert source.count(old) == 1
    mutant = types.ModuleType("adjhier.oracle_mutant")
    mutant.__package__ = "adjhier"
    exec(compile(source.replace(old, new), oracle.__file__, "exec"),
         mutant.__dict__)
    monkeypatch.setattr(oracle, "_fold", mutant._fold)
    for spec, n_max in [(HierarchySpec.plain(), 5),
                        (HierarchySpec.atoms(2), 4)]:
        _, checks = verify.verify(spec, n_max)
        assert not checks[0].ok, (spec, checks[0])  # the level sizes


def test_atoms_oracle_keeps_only_levels_below_the_top():
    # level 4 of atoms u=2 holds 102,751 sets; none of them is interned,
    # so verifying it traces well under 4 MB (about 17 MB interned)
    ls = oracle.build_levels(HierarchySpec.atoms(2), 4)
    assert ls.engine.size == len(set().union(*ref.levels(3, 2))) == 328
    assert ls.size(4) == 102_751
    verify.verify_atoms(2, 2)  # the imports of the first call
    tracemalloc.start()
    try:
        ls, checks = verify.verify_atoms(2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert ls.engine.size == 328  # the k-split interned nothing either
    assert peak < 4 << 20, peak


def test_plain_oracle_keeps_only_levels_below_the_top():
    # level 5 holds 11,680 sets; the profiles and the ark lemma read them
    # off the fold too, so none is interned and verifying traces well
    # under 1 MB (about 3.3 MB interned)
    verify.verify_plain(2)  # the imports of the first call
    tracemalloc.start()
    try:
        ls, checks = verify.verify_plain(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert ls.engine.size == len(set().union(*ref.levels(4))) == 112
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("spec, n_max, source", [
    (HierarchySpec.plain(), 5, None),
    (HierarchySpec.atoms(1), 3, None),
    (HierarchySpec.atoms(2), 3, None),
    (HierarchySpec.bounded(BoundFunction("sqrt")), 27,
     ref.bounded(ref.BOUNDS["sqrt"])),
    (HierarchySpec.bounded(BoundFunction("log2")), 19,
     ref.bounded(ref.BOUNDS["log2"])),
    (HierarchySpec.min_bounded(), 5, ref.minbounded)],
    ids=["plain", "atoms-1", "atoms-2", "sqrt", "log2", "minbounded"])
def test_levels_equal_reference(spec, n_max, source):
    # each level as a set of notations, against the frozensets its
    # defining equation builds
    ls = oracle.build_levels(spec, n_max)
    want = ref.levels(n_max, spec.u, source)
    assert top_reads(ls) == reference_top_reads(want)  # before it is interned
    assert [sets(ls, n) for n in range(n_max + 1)] == want
    assert ls.sizes() == [len(v) for v in want]  # no set has two ids


def test_level_reads_follow_appended_levels():
    # a build appends levels after the counts have been read, as the
    # minbounded source-level choice does
    full = oracle.build_levels(HierarchySpec.min_bounded(), 4)
    ls = oracle.LevelSets(full.spec, full.engine, full.levels[:3])
    for more in full.levels[3:]:
        assert_reads_match_raw_levels(ls)
        ls.levels.append(more)
    assert_reads_match_raw_levels(ls)


def _imports(path):
    """(relative modules, top-level packages of absolute imports) a
    source file imports."""
    relative, absolute = set(), set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.update([node.module] if node.module
                            else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            absolute.update(a.name.split(".")[0] for a in node.names)
    return relative, absolute


def test_oracle_imports_no_counting_code():
    # the oracle is an independent route: it shares no code with the
    # recurrences it checks
    internal, absolute = _imports(oracle.__file__)
    assert internal == {"hfs", "errors", "variants"}
    assert "adjhier" not in absolute


def test_reference_imports_no_adjhier_module():
    # the frozenset reference shares no code with the engine it checks
    relative, absolute = _imports(ref.__file__)
    assert not relative and "adjhier" not in absolute

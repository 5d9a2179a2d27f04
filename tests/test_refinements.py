import math

import pytest

from adjhier import oracle
from adjhier.recurrence import a_sequence, compute_b_table
from adjhier.refinements import (compute_atoms_table, compute_d_table,
                                 compute_r_table, d_profile, r_profile)
from adjhier.variants import HierarchySpec

from golden import ATOM_SIZES, CARD_PROFILES, PLAIN_A, RANK_PROFILES


@pytest.fixture(scope="module")
def rt7():
    return compute_r_table(7)


@pytest.fixture(scope="module")
def dt6():
    return compute_d_table(6)


def test_rank_profiles_golden(rt7):
    for n, row in enumerate(RANK_PROFILES):
        assert r_profile(rt7, n) == dict(enumerate(row))


def test_rank_profile_pins(rt7):
    assert r_profile(rt7, 4)[4] == 96
    assert r_profile(rt7, 5)[5] == 10752
    assert r_profile(rt7, 7)[7] == 17043910396477440
    # only the empty set has rank 0
    for n in range(8):
        assert r_profile(rt7, n)[0] == 1


def test_rank_profile_sums(rt7):
    for n in range(8):
        assert sum(r_profile(rt7, n).values()) == PLAIN_A[n]


def test_card_profiles_golden(dt6):
    for n, row in enumerate(CARD_PROFILES):
        assert d_profile(dt6, n) == dict(enumerate(row))


def test_card_profile_pins(dt6):
    assert d_profile(dt6, 4) == {0: 1, 1: 12, 2: 38, 3: 44, 4: 17}
    assert d_profile(dt6, 5)[5] == 1764
    assert d_profile(dt6, 6)[6] == 20496642
    for n in range(7):
        assert d_profile(dt6, n)[0] == 1  # only the empty set is empty
    for n in range(7):
        assert sum(d_profile(dt6, n).values()) == PLAIN_A[n]


def test_saturation_equals_unrefined_cells(rt7, dt6):
    b7 = compute_b_table(7)
    for n in range(1, 8):
        for m in range(n):
            assert rt7.value(n, m, m + 1) == b7.b(n, m)
            # any larger threshold saturates too
            assert rt7.value(n, m, m + 9) == b7.b(n, m)
    for n in range(1, 7):
        for m in range(n):
            assert dt6.value(n, m, n) == b7.b(n, m)
            assert dt6.value(n, m, n + 5) == b7.b(n, m)


def test_cells_monotone_in_threshold(rt7, dt6):
    for (n, m), cell in rt7.cells.items():
        assert all(x <= y for x, y in zip(cell, cell[1:]))
    for (n, m), cell in dt6.cells.items():
        assert all(x <= y for x, y in zip(cell, cell[1:]))


def test_out_of_range_reads(rt7):
    assert rt7.value(3, 1, -1) == 0
    assert rt7.value(0, -1, 5) == 1
    assert rt7.value(4, -1, 2) == 0
    with pytest.raises(IndexError):
        rt7.value(8, 0, 0)
    with pytest.raises(IndexError):
        r_profile(rt7, 8)


def test_profiles_match_oracle():
    ls = oracle.build_levels(HierarchySpec.plain(), 4)
    rt, dt = compute_r_table(4), compute_d_table(4)
    for n in range(5):
        assert oracle.profile_counts(ls, n, "rank") == r_profile(rt, n)
        assert oracle.profile_counts(ls, n, "cardinality") == d_profile(dt, n)


def test_d_table_uses_supplied_plain_table():
    b = compute_b_table(6)
    assert compute_d_table(6, b).cells == compute_d_table(6).cells
    with pytest.raises(ValueError):
        compute_d_table(6, compute_b_table(3))


def test_atoms_sequences_golden():
    for u, sizes in ATOM_SIZES.items():
        assert compute_atoms_table(u, 5).sizes == sizes


def test_atoms_pins():
    assert compute_atoms_table(1, 5).sizes == [2, 4, 11, 86, 6707, 44661920]
    assert compute_atoms_table(3, 5).sizes[3] == 898


def test_atoms_base_cases():
    t = compute_atoms_table(3, 6)
    assert t.b(0, -1) == 4
    for n in range(1, 7):
        assert t.b(n, 0) == math.comb(4, n)


def test_atoms_u0_reduces_to_plain():
    t0 = compute_atoms_table(0, 9)
    plain = compute_b_table(9)
    assert t0.sizes == a_sequence(plain)
    assert t0.rows == plain.rows


def test_atoms_match_oracle():
    for u in (1, 2):
        ls = oracle.build_levels(HierarchySpec.atoms(u), 3)
        t = compute_atoms_table(u, 3)
        assert ls.sizes() == t.sizes


def test_layers_share_binomial_rows(monkeypatch):
    # rank layers t > m+1 adjoin the same c(m); each C(c(m), k) of one
    # build is computed once
    from adjhier import recurrence
    computed = []
    extend = recurrence._extend

    def recorded(row, d, k, p):
        computed.extend((d, j, p) for j in range(len(row), k + 1))
        extend(row, d, k, p)

    monkeypatch.setattr(recurrence, "_extend", recorded)
    for build in (compute_r_table, compute_d_table):
        computed.clear()
        build(12)
        assert computed and len(computed) == len(set(computed))

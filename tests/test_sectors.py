import pytest
from hypothesis import given, strategies as st

from tcforge.sectors import (SectorIndex, accidental_pairs,
                             accidental_partner, basis_labels,
                             enumerate_sectors, is_filled, j_min2,
                             multiplicity, sector_dim, spins)
from tcforge.liealg import schwinger_check, verify_pi_universality
from tcforge.operators import jx_operator
from tcforge.realizability import state_convertible


def test_sector_dim_examples():
    assert sector_dim(SectorIndex(2, 2, 2)) == 3
    assert sector_dim(SectorIndex(4, 0, 4)) == 1
    assert sector_dim(SectorIndex(6, 4, 6)) == 5
    assert sector_dim(SectorIndex(6, 7, 4)) == 5


def test_invalid_indices_rejected():
    with pytest.raises(ValueError):
        SectorIndex(2, 0, 1)  # parity
    with pytest.raises(ValueError):
        SectorIndex(4, 0, 2)  # empty: j < n/2 - q
    with pytest.raises(ValueError):
        SectorIndex(2, -1, 2)
    for jj in (-2, 4):
        with pytest.raises(ValueError, match="outside"):
            SectorIndex(2, 1, jj)
        with pytest.raises(ValueError, match=rf"^2j={jj} outside \[0, 2\]$"):
            multiplicity(2, jj)


@pytest.mark.parametrize("call, args, name", [
    (SectorIndex, (2, 1.5, 2), "q"),
    (SectorIndex, (2, float("nan"), 2), "q"),
    (SectorIndex, (2, True, 2), "q"),
    (SectorIndex, (2, -1, 2), "q"),
    (SectorIndex, (2.0, 1, 2), "n"),
    (SectorIndex, (0, 1, 0), "n"),
    (SectorIndex, (2, 1, 2.0), "jj"),
    (enumerate_sectors, (2, 2.5), "q_max"),
    (enumerate_sectors, (2, -1), "q_max"),
    (enumerate_sectors, (2.0, 2), "n"),
    (enumerate_sectors, (0, 2), "n"),
    (multiplicity, (4.0, 2), "n"),
    (multiplicity, (4, 2.0), "jj"),
    (state_convertible, (2.0, {(2, 0): 1.0}, {(2, 0): 1.0}), "n"),
    (state_convertible, (2, {(1.5, 0): 1.0}, {(2, 0): 1.0}), "2m"),
    (state_convertible, (2, {(2, 0): 1.0}, {(2, 0.5): 1.0}), "k"),
    (state_convertible, (2, {(2, -1): 1.0}, {(2, 0): 1.0}), "k"),
    # jx_operator(1.5) was 3-square with a zero row, jx_operator(-1) [[0]],
    # schwinger_check(-1, -5) ok over 0 labels
    (jx_operator, (1.5,), "jj"),
    (jx_operator, (-1,), "jj"),
    (schwinger_check, (-1, 5), "jj_max"),
    (schwinger_check, (2, -5), "k_max"),
    (verify_pi_universality, (1.5,), "jj"),
])
def test_non_integer_arguments_raise_value_error_naming_them(call, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(*args)


def test_multiplicity_examples():
    assert multiplicity(2, 0) == 1 and multiplicity(2, 2) == 1
    assert multiplicity(4, 2) == 3
    assert multiplicity(6, 4) == 5
    with pytest.raises(ValueError):
        multiplicity(4, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_multiplicity_completeness(n):
    assert sum(multiplicity(n, jj) * (jj + 1)
               for jj in range(j_min2(n), n + 1, 2)) == 2 ** n


@pytest.mark.parametrize("n", range(1, 10))
def test_spins_are_those_the_sectors_carry(n):
    # by q = n every spin has a sector; spins(n) lists them from 2j = n down
    carried = dict.fromkeys(s.jj for s in enumerate_sectors(n, n))
    assert list(spins(n)) == list(carried)
    assert list(spins(n)) == [jj for jj in range(n + 1) if (n - jj) % 2 == 0][::-1]


def test_enumerate_examples():
    # n=2 includes the singlet sector (q=1, j=0): |Psi-⟩⊗|0⟩ has charge 1
    assert [(s.q, s.jj) for s in enumerate_sectors(2, 2)] == [
        (0, 2), (1, 2), (1, 0), (2, 2), (2, 0)]
    assert [(s.q, s.jj) for s in enumerate_sectors(1, 0)] == [(0, 1)]
    assert [(s.q, s.jj) for s in enumerate_sectors(3, 1)] == [
        (0, 3), (1, 3), (1, 1)]


def test_basis_labels_examples():
    labs = basis_labels(SectorIndex(2, 2, 2))
    assert labs == [(2, 2, 0), (2, 0, 1), (2, -2, 2)]
    labs = basis_labels(SectorIndex(2, 0, 2))
    assert labs == [(2, -2, 0)]
    labs = basis_labels(SectorIndex(3, 4, 1))
    assert labs == [(1, 1, 2), (1, -1, 3)]


@given(st.integers(1, 8), st.integers(0, 14))
def test_basis_labels_consistent(n, q):
    for idx in enumerate_sectors(n, q):
        labs = basis_labels(idx)
        assert len(labs) == sector_dim(idx)
        for jj, mm, k in labs:
            assert jj == idx.jj
            assert mm + 2 * k + n == 2 * idx.q
            assert -idx.jj <= mm <= idx.jj
            assert k >= 0


def test_dimension_saturation():
    for n in (2, 3, 5):
        for jj in range(j_min2(n), n + 1, 2):
            sat = (n + jj) // 2
            for q in range(max(0, (n - jj) // 2), sat + 4):
                d = sector_dim(SectorIndex(n, q, jj))
                if q >= sat:
                    assert d == jj + 1
                elif q > (n - jj) // 2:
                    assert d == sector_dim(SectorIndex(n, q - 1, jj)) + 1


def test_partner_examples():
    assert accidental_partner(SectorIndex(3, 1, 3)) == SectorIndex(3, 4, 1)
    assert accidental_partner(SectorIndex(6, 4, 6)) == SectorIndex(6, 7, 4)
    assert accidental_partner(SectorIndex(2, 2, 0)) is None


@given(st.integers(1, 8), st.integers(0, 14))
def test_partner_involution(n, q_max):
    for idx in enumerate_sectors(n, q_max):
        p = accidental_partner(idx)
        if p is None:
            continue
        assert accidental_partner(p) == idx
        assert sector_dim(p) == sector_dim(idx)
        assert 2 * abs(p.q - idx.q) == 3 * abs(idx.jj - p.jj)
        assert is_filled(p) != is_filled(idx)


def test_one_pair_per_spin_pair():
    # each (j, j') with j > j' > 0 contributes exactly one pair
    for n in (4, 6):
        pairs = accidental_pairs(n, 20)
        seen = {(a.jj, b.jj) for a, b in pairs}
        want = {(jj, jjp) for jj in range(j_min2(n) + 2, n + 1, 2)
                for jjp in range(2 - (n & 1), jj, 2)}
        assert seen == want

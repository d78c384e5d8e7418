import numpy as np
import pytest
from fractions import Fraction

from tcforge import operators as ops
from tcforge.sectors import SectorIndex, basis_labels, enumerate_sectors


def test_htc_block_examples():
    m = ops.htc_block(SectorIndex(3, 1, 3))
    assert np.allclose(m, np.array([[0, np.sqrt(3)], [np.sqrt(3), 0]]))
    m = ops.htc_block(SectorIndex(2, 2, 2))
    want = np.array([[0, np.sqrt(2), 0], [np.sqrt(2), 0, 2], [0, 2, 0]])
    assert np.allclose(m, want)
    m = ops.htc_block(SectorIndex(4, 0, 4))
    assert m.shape == (1, 1) and m[0, 0] == 0


def test_diagonal_blocks():
    jz = ops.jz_block(SectorIndex(2, 2, 2))
    nb = ops.number_block(SectorIndex(2, 2, 2))
    assert jz.shape == nb.shape == (3,)
    assert np.allclose(jz, [1, 0, -1])
    assert np.allclose(nb, [0, 1, 2])
    # J_z + a†a + n/2 = q on every basis vector, by definition of the charge
    for n in (2, 3, 5):
        for idx in enumerate_sectors(n, 6):
            tot = ops.jz_block(idx) + ops.number_block(idx) + n / 2
            assert tot.shape == (idx.dim,)
            assert np.allclose(tot, idx.q)


def test_htc_tridiagonal_superdiagonal_positive():
    for n in (2, 3, 4, 6):
        for idx in enumerate_sectors(n, 9):
            m = ops.htc_block(idx)
            assert np.allclose(m, m.conj().T)
            assert np.allclose(np.diag(m), 0)
            for i in range(idx.dim - 1):
                assert m[i, i + 1].real > 0
            assert np.allclose(np.triu(m, 2), 0)


def test_jx_operator():
    m = ops.jx_operator(1)
    assert np.allclose(m, [[0, 0.5], [0.5, 0]])
    m = ops.jx_operator(2)
    off = 1 / np.sqrt(2)
    assert np.allclose(m, [[0, off, 0], [off, 0, off], [0, off, 0]])


def test_tower_matches_blocks():
    # charge sectors embed in the fixed-j tower at matching (m, k) labels
    for n, jj, k_max in ((2, 2, 6), (3, 1, 5)):
        ht = ops.htc_tower(jj, k_max)
        for idx in enumerate_sectors(n, 4):
            if idx.jj != jj:
                continue
            rows = [k * (jj + 1) + (jj - mm) // 2 for _, mm, k in basis_labels(idx)]
            sub = ht[np.ix_(rows, rows)]
            assert np.allclose(sub, ops.htc_block(idx), atol=1e-12)


def test_energy_variance_closed_form():
    # closed form against the explicit trace, every sector up to desk scale
    for n in range(1, 7):
        for idx in enumerate_sectors(n, 12):
            h = ops.htc_block(idx)
            brute = np.trace(h @ h).real / idx.dim
            assert abs(brute - ops.energy_variance(idx)) < 1e-10
    # symmetric-subspace example with j = 1 at n = 2
    for q in (2, 3, 5):
        idx = SectorIndex(2, q, 2)
        assert ops.energy_variance_exact(idx) == Fraction(4 * (2 * q - 1), 3)
    assert ops.energy_variance(SectorIndex(4, 0, 4)) == 0


def test_charge_vectors_exact():
    for n in range(1, 7):
        for idx in enumerate_sectors(n, 10):
            jz_sum = sum(Fraction(mm, 2) for _, mm, _ in basis_labels(idx))
            n_sum = sum(Fraction(k) for _, _, k in basis_labels(idx))
            assert ops.charge_vector(idx, "jz") == jz_sum
            assert ops.charge_vector(idx, "n") == n_sum
    assert ops.charge_vector(SectorIndex(2, 2, 2), "jz") == 0
    # symmetric subspace, q ≤ n: (q+1)(q-n)/2
    for n in (3, 5):
        for q in range(n + 1):
            assert ops.charge_vector(SectorIndex(n, q, n), "jz") == \
                Fraction((q + 1) * (q - n), 2)
    # number trace above saturation: (2j+1)(q - n/2)
    idx = SectorIndex(4, 8, 2)
    assert ops.charge_vector(idx, "n") == 3 * Fraction(8 * 2 - 4, 2)
    with pytest.raises(ValueError):
        ops.charge_vector(idx, "x")


def test_sector_equivalence():
    assert ops.sector_equivalence_check(SectorIndex(6, 4, 4),
                                        SectorIndex(4, 3, 4))
    assert ops.sector_equivalence_check(SectorIndex(2, 1, 2),
                                        SectorIndex(2, 1, 2))
    with pytest.raises(ValueError):
        ops.sector_equivalence_check(SectorIndex(6, 4, 4),
                                     SectorIndex(4, 3, 2))


def test_accidental_pair_matrices():
    # paired sectors carry identical coupling blocks and shifted J_z
    from tcforge.sectors import accidental_pairs
    for n in range(2, 7):
        for unfilled, filled in accidental_pairs(n, 12):
            ha = ops.htc_block(unfilled)
            hb = ops.htc_block(filled)
            assert np.array_equal(ha, hb)
            za = ops.jz_block(unfilled)
            zb = ops.jz_block(filled)
            shift = (filled.jj - unfilled.jj) / 2  # j' - j
            assert np.allclose(za - zb, shift)

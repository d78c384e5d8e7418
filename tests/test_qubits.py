import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcforge import qubits as qb
from tcforge.sectors import SectorIndex, j_min2, multiplicity


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jm_basis_orthonormal_complete(n):
    basis = qb.jm_basis(n)
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for jj, frames in basis.items():
        assert frames.shape == (jj + 1, 2 ** n, multiplicity(n, jj))
        assert frames.dtype == np.float64
        for frame in frames:
            gram = frame.conj().T @ frame
            assert np.abs(gram - np.eye(frame.shape[1])).max() < 1e-10
            total += frame @ frame.conj().T
    assert np.abs(total - np.eye(2 ** n)).max() < 1e-9


def test_cached_jm_basis_frames_are_read_only():
    # jm_basis is cached, so a write would reach every later caller at that n
    for frames in qb.jm_basis(3).values():
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0, 0] = 1.0


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_jm_basis_frames_stay_orthonormal_across_spins(n):
    # lowering is isometric only on its own spin, so rounding along the
    # higher spins grows with n: 4.9e-15 at n = 10 and 3.6e-14 at n = 11
    frames = np.concatenate([f for fr in qb.jm_basis(n).values() for f in fr], axis=1)
    assert frames.shape == (2 ** n, 2 ** n)
    assert np.abs(frames.T @ frames - np.eye(2 ** n)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jm_basis_eigenvectors(n):
    jx, jy, jz = qb.spin_ops(n)
    j2 = jx @ jx + jy @ jy + jz @ jz
    for jj, frames in qb.jm_basis(n).items():
        for r, frame in enumerate(frames):  # row r holds m = j - r
            j, m = jj / 2, jj / 2 - r
            assert np.abs(j2 @ frame - j * (j + 1) * frame).max() < 1e-9
            assert np.abs(jz @ frame - m * frame).max() < 1e-9


def test_n11_vacuum_state_in_a_fresh_process_stays_small():
    # a fresh process, so no cached frames of another test count; the real
    # frames hold 2^n x 2^n floats, 34 MB at n = 11, and no dense spin matrix
    # may be built on the way
    code = """if True:
        import resource
        import numpy as np
        from tcforge.dynamics import Circuit, Gate, evolve_vacuum_state
        n = 11
        psi = np.random.default_rng(3).normal(size=(2, 2 ** n)).T @ [1, 1j]
        circ = Circuit(n, [Gate("tc", 0.7), Gate("rz", 0.3), Gate("rx", 0.4),
                           Gate("tc", -0.5)])
        joint = evolve_vacuum_state(circ, psi / np.linalg.norm(psi), n)
        print(np.linalg.norm(joint), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    norm, max_rss_kb = map(float, proc.stdout.split())
    assert abs(norm - 1) <= 1e-12
    assert max_rss_kb < 300 * 1024  # ru_maxrss is in kB on Linux


def test_jm_basis_two_qubits_bell():
    basis = qb.jm_basis(2)
    psi_minus = np.array([0, 1, -1, 0]) / np.sqrt(2)
    overlap = abs(np.vdot(basis[0][0][:, 0], psi_minus))
    assert abs(overlap - 1) < 1e-12
    assert abs(abs(basis[2][0][0, 0]) - 1) < 1e-12  # |00⟩ is the top level


def test_assemble_pi_invariant_under_transpositions():
    # assembled operators commute with every qubit transposition
    n = 3
    rng = np.random.default_rng(6)
    u_by_j = {}
    for jj in range(j_min2(n), n + 1, 2):
        z = rng.normal(size=(jj + 1, jj + 1)) \
            + 1j * rng.normal(size=(jj + 1, jj + 1))
        u_by_j[jj] = z
    op = qb.assemble_pi(n, u_by_j)
    swap01 = np.zeros((8, 8))
    for i in range(8):
        b = format(i, "03b")
        swap01[int(b[1] + b[0] + b[2], 2), i] = 1
    assert np.abs(op @ swap01 - swap01 @ op).max() < 1e-9


def test_assemble_pi_identity():
    n = 3
    u_by_j = {jj: np.eye(jj + 1, dtype=complex)
              for jj in range(j_min2(n), n + 1, 2)}
    assert np.abs(qb.assemble_pi(n, u_by_j) - np.eye(8)).max() < 1e-9
    u_by_j[3] = np.eye(3)
    with pytest.raises(ValueError, match=r"^block for 2j=3 must be \(4, 4\)$"):
        qb.assemble_pi(n, u_by_j)


def test_full_space_projection_matches_blocks():
    from tcforge.operators import htc_block
    from tcforge.sectors import enumerate_sectors
    n, k_cut = 3, 8
    h = qb.htc_full(n, k_cut)
    for idx in enumerate_sectors(n, 6):
        brute = qb.project_full(h, idx, k_cut)
        assert np.abs(brute - htc_block(idx)).max() < 1e-10
    with pytest.raises(ValueError, match="^need k_cut ≥ 6 for"):
        qb.sector_vectors(SectorIndex(n, 6, 3), 5)  # |j, -j⟩⊗|6⟩


def test_textbook_gate_identities():
    assert np.allclose(qb.SQRT_ISWAP @ qb.SQRT_ISWAP, qb.ISWAP)
    assert np.allclose(qb.SWAP @ qb.SWAP, np.eye(4))
    assert np.allclose(qb.uzz(0.0), np.eye(4))
    # zz evolution at φ = π/2 is cz up to phases on the odd-parity states
    assert np.allclose(qb.uzz(np.pi / 2),
                       np.diag([-1j, 1j, 1j, -1j]) @ np.eye(4))
    p = qb.u_psi_plus(1.3)
    psi_plus = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert abs(psi_plus @ p @ psi_plus - np.exp(-1.3j)) < 1e-12

"""Full computational-basis operators and explicit spin-adapted bases.

Everything here works on the untruncated 2^n qubit space (optionally
tensored with a finite oscillator ladder) and exists to cross-check the
per-sector matrices against first principles, and to assemble
permutationally-invariant block operators back into 2^n x 2^n matrices.
Intended for desk scale (n ≤ 6).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .sectors import SectorIndex, basis_labels, j_min2, multiplicity

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _one_site(n: int, i: int, op: np.ndarray) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for site in range(n):
        full = np.kron(full, op if site == i else np.eye(2))
    return full


def collective(n: int, op: np.ndarray) -> np.ndarray:
    """J_w = (1/2) sum_i sigma_w^(i) for a single-qubit operator sigma_w."""
    return 0.5 * sum(_one_site(n, i, op) for i in range(n))


@lru_cache(maxsize=None)
def spin_ops(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    jx = collective(n, SIGMA_X)
    jy = collective(n, SIGMA_Y)
    jz = collective(n, SIGMA_Z)
    return jx, jy, jz


@lru_cache(maxsize=None)
def jm_basis(n: int) -> dict[int, np.ndarray]:
    """Orthonormal |j,m,alpha⟩ vectors, keyed by the doubled spin 2j.

    Each value is a (2j+1, 2^n, multiplicity) stack of frames: row r holds
    m = j - r, the m index of ``jx_operator`` and the dynamics towers, and
    the columns of a frame are the multiplicity copies.  Copies for
    different m of the same j are tied together by explicit lowering from
    the highest-weight space, so a permutationally-invariant operator is
    exactly alpha-diagonal in this basis.
    """
    jx, jy, jz = spin_ops(n)
    jplus = jx + 1j * jy
    jminus = jx - 1j * jy
    mz = np.real(np.diag(jz))
    out: dict[int, np.ndarray] = {}
    for jj in range(n, j_min2(n) - 1, -2):
        j = jj / 2
        # highest-weight space: kernel of J+ inside the m = j eigenspace
        cols = np.flatnonzero(np.abs(mz - j) < 1e-9)
        block = jplus[:, cols]
        _, s, vh = np.linalg.svd(block, full_matrices=True)
        rank = int(np.sum(s > 1e-9)) if s.size else 0
        null = vh.conj().T[:, rank:]
        hw = np.zeros((2 ** n, null.shape[1]), dtype=complex)
        hw[cols, :] = null
        assert hw.shape[1] == multiplicity(n, jj)
        frames = [hw]
        for mm in range(jj, -jj, -2):  # lower |j,m⟩ to |j,m-1⟩
            norm = np.sqrt((j + mm / 2) * (j - mm / 2 + 1))
            frames.append((jminus @ frames[-1]) / norm)
        out[jj] = np.stack(frames)
    return out


def fock_destroy(k_cut: int) -> np.ndarray:
    a = np.zeros((k_cut + 1, k_cut + 1), dtype=complex)
    for k in range(1, k_cut + 1):
        a[k - 1, k] = np.sqrt(k)
    return a


def htc_full(n: int, k_cut: int) -> np.ndarray:
    """J+a + J-a† on (C^2)^⊗n ⊗ Fock(k ≤ k_cut), qubit-major ordering.

    The k_cut boundary truncates the J-a† raising term, so only matrix
    elements between states with k < k_cut are faithful.
    """
    jx, jy, _ = spin_ops(n)
    jplus = jx + 1j * jy
    a = fock_destroy(k_cut)
    h = np.kron(jplus, a)
    return h + h.conj().T


def sector_vectors(idx: SectorIndex, k_cut: int, alpha: int = 0) -> np.ndarray:
    """Columns |j,m,alpha⟩⊗|k⟩ for the sector's ordered basis labels."""
    frames = jm_basis(idx.n)[idx.jj]
    labels = basis_labels(idx)
    dim_full = 2 ** idx.n * (k_cut + 1)
    cols = np.zeros((dim_full, len(labels)), dtype=complex)
    for col, (jj, mm, k) in enumerate(labels):
        if k > k_cut:
            raise ValueError(f"need k_cut ≥ {k} for {idx}")
        qvec = frames[(jj - mm) // 2][:, alpha]
        fvec = np.zeros(k_cut + 1, dtype=complex)
        fvec[k] = 1.0
        cols[:, col] = np.kron(qvec, fvec)
    return cols


def project_full(op_full: np.ndarray, idx: SectorIndex, k_cut: int,
                 alpha: int = 0) -> np.ndarray:
    """Brute-force sector block ⟨basis| op |basis⟩ from a full-space matrix."""
    vecs = sector_vectors(idx, k_cut, alpha)
    return vecs.conj().T @ op_full @ vecs


def assemble_pi(n: int, u_by_j: dict[int, np.ndarray]) -> np.ndarray:
    """2^n x 2^n matrix of ⊕_j I_mult ⊗ u_j; u_j indexed by r = j - m."""
    basis = jm_basis(n)
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for jj, u in u_by_j.items():
        if u.shape != (jj + 1, jj + 1):
            raise ValueError(f"block for 2j={jj} must be {(jj + 1, jj + 1)}")
        frames = basis[jj]  # F[r, p, alpha]; out += F (u ⊗ I_mult) F†
        right = np.einsum("rc,cqa->raq", u, frames.conj()).reshape(-1, 2 ** n)
        out += frames.transpose(1, 0, 2).reshape(2 ** n, -1) @ right
    return out


# Textbook two-qubit gates in the computational basis |00⟩,|01⟩,|10⟩,|11⟩.
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
SQRT_ISWAP = np.array(
    [[1, 0, 0, 0],
     [0, 1 / np.sqrt(2), 1j / np.sqrt(2), 0],
     [0, 1j / np.sqrt(2), 1 / np.sqrt(2), 0],
     [0, 0, 0, 1]], dtype=complex)


def uzz(phi: float) -> np.ndarray:
    """exp(-i phi Z⊗Z)."""
    return np.diag(np.exp(-1j * phi * np.array([1, -1, -1, 1]))).astype(complex)


def u_psi_plus(phi: float) -> np.ndarray:
    """exp(-i phi |Psi+⟩⟨Psi+|)."""
    proj = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    out = np.eye(4, dtype=complex)
    out[1:3, 1:3] += (np.exp(-1j * phi) - 1) * proj
    return out

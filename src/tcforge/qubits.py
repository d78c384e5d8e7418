"""Full computational-basis operators and explicit spin-adapted bases.

Everything here works on the untruncated 2^n qubit space (optionally
tensored with a finite oscillator ladder) and exists to cross-check the
per-sector matrices against first principles, and to assemble
permutationally-invariant block operators back into 2^n x 2^n matrices.
The real |j,m,alpha⟩ frames come from the J- ladder alone and fill 2^n x 2^n
floats, 34 MB at n = 11; the dense spin and Fock matrices suit n ≤ 6.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .operators import _ladder
from .sectors import SectorIndex, basis_labels, multiplicity, spins

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def spin_ops(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense complex J_w = (1/2) sum_i sigma_w^(i), w = x, y, z, on 2^n
    amplitudes: the independent oracle."""
    return tuple(0.5 * sum(reduce(np.kron, [op if s == i else np.eye(2) for s in range(n)])
                           for i in range(n)) for op in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def _lower(x: np.ndarray, n: int) -> np.ndarray:
    """J- on the last axis of x, [..., 2^n]: one strided add per site, from
    its bit 0 (m = +1/2) into its bit 1; site 0 is the top bit."""
    out = np.zeros_like(x)
    for p in range(n):
        src = x.reshape(*x.shape[:-1], 2 ** (n - 1 - p), 2, 2 ** p)
        out.reshape(src.shape)[..., 1, :] += src[..., 0, :]
    return out


@lru_cache(maxsize=None)
def jm_basis(n: int) -> dict[int, np.ndarray]:
    """Orthonormal real |j,m,alpha⟩ vectors, keyed by the doubled spin 2j.

    Each value is a (2j+1, 2^n, multiplicity) float64 stack of frames: row r
    holds m = j - r, the m index of ``jx_operator`` and the dynamics towers,
    and the columns of a frame are the multiplicity copies.  From 2j = n
    down, the copies at m = j complete the higher spins' copies at that m,
    and J- lowers them to the other rows, so a permutationally-invariant
    operator is exactly alpha-diagonal in this basis.
    """
    ones = np.array([b.bit_count() for b in range(2 ** n)])
    out: dict[int, np.ndarray] = {}
    for jj in spins(n):
        cols = np.flatnonzero(ones == (n - jj) // 2)  # the states with m = j
        # Q's columns after the higher spins' copies complete them; the
        # identity keeps the QR off an empty matrix at 2j = n
        taken = np.hstack([f[(big - jj) // 2, cols] for big, f in out.items()]
                          + [np.eye(len(cols))])
        top = np.zeros((multiplicity(n, jj), 2 ** n))
        top[:, cols] = np.linalg.qr(taken)[0][:, len(cols) - len(top):].T
        rows = [top]  # frames transposed, [alpha, p] per r
        for norm in np.sqrt(_ladder(jj, np.arange(jj, -jj, -2))):
            rows.append(_lower(rows[-1], n) / norm)
        out[jj] = np.stack(rows).transpose(0, 2, 1)
        out[jj].setflags(write=False)  # cached: shared by every later caller
    return out


def htc_full(n: int, k_cut: int) -> np.ndarray:
    """J+a + J-a† on (C^2)^⊗n ⊗ Fock(k ≤ k_cut), qubit-major ordering.

    The k_cut boundary truncates the J-a† raising term, so only matrix
    elements between states with k < k_cut are faithful.
    """
    jx, jy, _ = spin_ops(n)
    jplus = jx + 1j * jy
    h = np.kron(jplus, np.diag(np.sqrt(np.arange(1, k_cut + 1)), 1))
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
        frames = basis[jj]  # F[r, p, alpha]; out += F (u ⊗ I_mult) Fᵀ
        left = frames.transpose(1, 0, 2).reshape(2 ** n, -1)
        rows = frames.transpose(0, 2, 1).reshape(jj + 1, -1)  # Fᵀ, [c, (alpha, q)]
        for part, dest in ((u.real, out.real), (u.imag, out.imag)):
            dest += left @ (part @ rows).reshape(-1, 2 ** n)
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

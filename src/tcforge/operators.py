"""Sector-projected operator matrices and their closed-form diagnostics.

The coupling g is set to 1 throughout; every circuit parameter downstream
is the dimensionless product g·t.  Within one sector the coupling
Hamiltonian J+a + J-a† is real, symmetric and tridiagonal in the basis
ordered by increasing oscillator level, with matrix elements

    ⟨j,m,k| H |j,m-1,k+1⟩ = sqrt((j+m)(j-m+1)(k+1)).

``coupling`` writes that element once, over any list of (2j, 2m, k)
labels: a sector, a fixed-j tower or a charge truncation.  The brute-force
``qubits.htc_full`` on the 2^n qubit space is kept apart as the oracle.

Closed forms for Tr(H² τ_{q,j}) and the sector traces of J_z and a†a are
kept in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .sectors import (SectorIndex, basis_labels, is_filled, require_int, require_tol,
                      require_type)

DEFAULT_ATOL = 1e-10


def _ladder(jj: int, mm: int) -> int:
    """(j+m)(j-m+1), the squared J- matrix element out of |j,m⟩, as an exact
    integer from doubled units; mm may be an integer array."""
    return (jj + mm) // 2 * ((jj - mm + 2) // 2)


def coupling(labels) -> np.ndarray:
    """J+a + J-a† on the span of the given (jj, mm, k) labels, in their order.

    Real and symmetric; a label couples to (jj, mm-2, k+1) only when that
    label is in the list too, so the list fixes the truncation.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    h = np.zeros((len(labels), len(labels)))
    for a, (jj, mm, k) in enumerate(labels):
        b = index.get((jj, mm - 2, k + 1))
        if b is not None:
            h[a, b] = h[b, a] = np.sqrt(_ladder(jj, mm) * (k + 1))
    return h


def htc_block(idx: SectorIndex) -> np.ndarray:
    """Coupling Hamiltonian on one sector: (d, d), tridiagonal, zero diagonal."""
    require_type(idx, SectorIndex, "idx")
    return coupling(basis_labels(idx))


def jz_block(idx: SectorIndex) -> np.ndarray:
    """Diagonal of J_z on one sector, as a (d,) vector."""
    return np.array([mm / 2 for _, mm, _ in basis_labels(idx)])


def number_block(idx: SectorIndex) -> np.ndarray:
    """Diagonal of a†a on one sector, as a (d,) vector."""
    return np.array([float(k) for _, _, k in basis_labels(idx)])


def jx_operator(jj: int) -> np.ndarray:
    """Spin J_x, (2j+1)-square in the basis m = j .. -j."""
    require_int(jj, "jj", 0)
    off = 0.5 * np.sqrt(_ladder(jj, np.arange(jj, -jj, -2)))  # ⟨j,m|J_x|j,m-1⟩
    return np.diag(off, 1) + np.diag(off, -1)


def htc_tower(jj: int, k_max: int) -> np.ndarray:
    """Coupling Hamiltonian on the fixed-j tower span{|j,m⟩⊗|k⟩ : k ≤ k_max},
    ordered by (k ascending, m descending): row k(2j+1) + j - m."""
    labels = [(jj, mm, k) for k in range(k_max + 1)
              for mm in range(jj, -jj - 2, -2)]
    return coupling(labels)


def energy_variance_exact(idx: SectorIndex) -> Fraction:
    """Tr(H² τ_{q,j}) in closed form, exact."""
    n, q, jj = idx.n, idx.q, idx.jj
    j = Fraction(jj, 2)
    if is_filled(idx):
        return 2 * j * (j + 1) * (2 * q - n + 1) / 3
    s = q - Fraction(n, 2) + j
    return s * (s + 2) * (3 * j - q + Fraction(n, 2) + 1) / 6


def energy_variance(idx: SectorIndex) -> float:
    return float(energy_variance_exact(idx))


def charge_vector(idx: SectorIndex, which: str) -> Fraction:
    """Per-copy sector trace Tr(π_{q,j}(J_z)) or Tr(π_{q,j}(a†a)), exact.
    The charge Q = a†a + J_z + n/2 is q on the sector, which fixes
    Tr a†a = (q - n/2)·dim - Tr J_z."""
    j, half_n = Fraction(idx.jj, 2), Fraction(idx.n, 2)
    if which == "jz":
        if is_filled(idx):  # Σ m over every m
            return Fraction(0)
        return (idx.q + j - half_n + 1) * (idx.q - j - half_n) / 2  # m = -j .. q - n/2
    if which == "n":
        return (idx.q - half_n) * idx.dim - charge_vector(idx, "jz")
    raise ValueError(f"unknown charge vector {which!r}; use 'jz' or 'n'")


def sector_equivalence_check(idx_a: SectorIndex, idx_b: SectorIndex,
                             atol: float = DEFAULT_ATOL) -> bool:
    """Entrywise equality of the (q,j) block of n qubits with the matching
    block of n' = 2j qubits (q_b = q_a - n/2 + j)."""
    require_tol(atol, "atol")
    if idx_a.jj != idx_b.jj:
        raise ValueError(f"spin mismatch: 2j={idx_a.jj} vs {idx_b.jj}")
    if idx_b.q != idx_a.q - (idx_a.n - idx_a.jj) // 2 + (idx_b.n - idx_b.jj) // 2:
        raise ValueError("charges not related by q_b = q_a - (n_a - n_b)/2")
    ha, hb = htc_block(idx_a), htc_block(idx_b)
    if ha.shape != hb.shape:
        return False
    if not np.allclose(ha, hb, atol=atol, rtol=0):
        return False
    return np.allclose(jz_block(idx_a), jz_block(idx_b), atol=atol, rtol=0)

"""Numerical checks of the algebraic structure behind the gate set.

Covers commutator closures and their ranks per sector, the ladder
anharmonicity condition guaranteeing per-sector universality, separation of
coupling-energy variances between same-dimension sectors, the conserved
exchange operator S pairing those sectors, and the two-oscillator
relabeling W that explains the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import (_ladder, coupling, energy_variance_exact, htc_block,
                        jx_operator, jz_block)
from .sectors import (SectorIndex, accidental_pairs, accidental_partner,
                      basis_labels, enumerate_sectors, require_finite,
                      require_int, require_tol, schwinger_image, sector_dim)


@dataclass
class OperatorBasis:
    """Hilbert-Schmidt-orthonormal basis of a real Lie algebra of
    skew-Hermitian matrices."""

    elements: tuple
    rank: int


def lie_closure(generators, tol: float = 1e-8) -> OperatorBasis:
    """Breadth-first commutator closure with Gram-Schmidt rank tracking.

    New elements pair with all earlier ones in order, and candidates below
    the relative cutoff are discarded.  Commutators are traceless, so the
    closure lies in su(d) when no generator has an identity component above
    tol times its norm, and in u(d) otherwise.  The loop stops once the
    basis has that dimension (d² - 1 or d²): no later candidate could add to
    it, so the elements are the prefix the unbounded loop would return,
    while a closure onto a proper subalgebra still runs to completion.
    Accepted candidates are orthogonalised twice; one pass lets rounding
    errors compound until noise passes the cutoff (seen from d = 12).
    """
    require_tol(tol, "tol")
    gens = [require_finite(g, "generators", complex) for g in generators]
    if not gens:
        return OperatorBasis((), 0)
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise ValueError("generators must share one square shape")
        if not np.abs(g + g.conj().T).max() <= 1e-9 * max(1.0, np.abs(g).max()):
            raise ValueError("generators must be skew-Hermitian")
    traced = any(abs(np.trace(g)) > tol * np.sqrt(d) * np.linalg.norm(g)
                 for g in gens)
    top = d * d if traced else d * d - 1

    basis: list[np.ndarray] = []
    flat = np.zeros((0, d * d), dtype=complex)

    def try_add(cand: np.ndarray) -> None:
        nonlocal flat
        nrm = np.linalg.norm(cand)
        if nrm < 1e-14:
            return
        resid = cand
        for _ in range(2):
            coeffs = (flat.conj() @ resid.ravel()).real
            resid = resid - (coeffs @ flat).reshape(d, d)
            rn = np.linalg.norm(resid)
            if rn <= tol * nrm:
                return
        basis.append(resid / rn)
        flat = np.vstack([flat, basis[-1].ravel()])

    for g in gens:
        try_add(g)
    k = 0
    while k < len(basis) < top:
        for i in range(k):
            try_add(basis[k] @ basis[i] - basis[i] @ basis[k])
            if len(basis) == top:
                break
        k += 1
    return OperatorBasis(tuple(basis), len(basis))


def _sector_closure(idx: SectorIndex, tol: float) -> OperatorBasis:
    """Lie closure of iH and iH̄ = [H, J_z], the z-conjugate, on a sector of d ≥ 2."""
    h, jz = htc_block(idx), jz_block(idx)
    return lie_closure([1j * h, h * jz - jz[:, None] * h], tol=tol)


def sector_rank_check(idx: SectorIndex, tol: float = 1e-8) -> bool:
    """True iff the coupling pulse and its z-conjugate generate the full
    special unitary algebra on the sector (rank d²-1); vacuous for d = 1."""
    require_tol(tol, "tol")
    d = sector_dim(idx)
    return d < 2 or _sector_closure(idx, tol).rank == d * d - 1


@dataclass
class AnharmonicityReport:
    idx: SectorIndex
    ys: list[int]
    ladder_sq: list[Fraction]
    second_diffs: list[Fraction]
    expected: list[Fraction]
    matches_closed_form: bool
    condition_holds: bool


def anharmonicity_check(idx: SectorIndex) -> AnharmonicityReport:
    """Second differences of the sector ladder (concave sign convention,
    2a²_y - a²_{y+1} - a²_{y-1}), with the closed form 2(n+q-1) - 6y.
    A non-constant profile separates the effective level gaps, which is
    exactly what the per-sector universality argument needs."""
    d = sector_dim(idx)
    y_min = (idx.n - idx.jj) // 2
    ys = list(range(y_min, y_min + d - 1))  # couplings a_y, y_min..y_min+d-2

    def a2(y: int) -> Fraction:
        """⟨y|A+A-|y⟩ for the sector ladder: the squared J- element out of
        m = y + 1 - n/2 times the squared a† element k + 1 = q - y."""
        if y < y_min or y > y_min + d - 2:
            return Fraction(0)  # boundary convention
        return Fraction(_ladder(idx.jj, 2 * y - idx.n + 2) * (idx.q - y))

    ladder = [a2(y) for y in ys]
    diffs = [2 * a2(y) - a2(y + 1) - a2(y - 1) for y in ys]
    expected = [Fraction(2 * (idx.n + idx.q - 1) - 6 * y) for y in ys]
    matches = diffs == expected
    condition = all(diffs[i] != diffs[0] for i in range(1, len(diffs)))
    return AnharmonicityReport(idx, ys, ladder, diffs, expected, matches,
                               condition)


@dataclass
class VarianceSeparationReport:
    n: int
    q_max: int
    pairs_checked: int
    partner_pairs: list
    equal_nonpartner: list
    ok: bool


def variance_separation_check(n: int, q_max: int) -> VarianceSeparationReport:
    """Among sectors of equal dimension ≥ 2, the coupling-energy variance
    must coincide exactly on partnered pairs and nowhere else."""
    rows = [(s, s.dim, energy_variance_exact(s), accidental_partner(s))
            for s in enumerate_sectors(n, q_max) if s.dim >= 2]
    pairs = [(a, b, va == vb, pa == b) for i, (a, d, va, pa) in enumerate(rows)
             for b, e, vb, _ in rows[i + 1:] if d == e]
    partner_pairs = [(a, b, equal) for a, b, equal, partnered in pairs if partnered]
    equal_nonpartner = [(a, b) for a, b, equal, partnered in pairs
                        if equal and not partnered]
    ok = not equal_nonpartner and all(eq for _, _, eq in partner_pairs)
    return VarianceSeparationReport(n, q_max, len(pairs), partner_pairs,
                                    equal_nonpartner, ok)


def build_exchange_operator(n: int, q_max: int):
    """The conserved exchange operator S on the charge-truncated basis (the
    labels of every sector with q ≤ q_max, in ``enumerate_sectors`` order):
    W on the labels of every partner pair, 0 elsewhere.

    A pair whose filled sector lies above q_max cannot be represented on the
    truncation; its (2j, 2j') is returned in ``skipped``, sorted.  The kept
    blocks commute with the coupling Hamiltonian on the whole truncation.
    """
    basis = [lab for idx in enumerate_sectors(n, q_max)
             for lab in basis_labels(idx)]
    index = {lab: i for i, lab in enumerate(basis)}
    s = np.zeros((len(basis), len(basis)))
    for idx, _ in accidental_pairs(n, q_max):
        for lab in basis_labels(idx):
            a, b = index[lab], index[schwinger_image(*lab)]
            s[a, b] = s[b, a] = 1.0
    # every partner charge n/2 - j' + 2j is below 3n/2
    skipped = sorted((idx.jj, p.jj) for idx, p in accidental_pairs(n, 3 * n // 2)
                     if p.q > q_max)
    return s, basis, skipped


@dataclass
class ExchangeCommutationReport:
    n: int
    q_max: int
    dim: int
    comm_norm: float
    jz_commutation_exact: bool
    pair_blocks: list
    skipped: list
    ok: bool


def check_exchange_commutation(n: int, q_max: int) -> ExchangeCommutationReport:
    """[H, S] vanishes on the truncation, and on its raising half every pair
    block satisfies [J_z, S(j,j')] = (j-j')·S(j,j') entrywise exactly (the
    lowering half carries the conjugate shift)."""
    s, basis, skipped = build_exchange_operator(n, q_max)
    h = coupling(basis)
    comm_norm = float(np.linalg.norm(h @ s - s @ h))
    # entry of [J_z, S] at (W(lab), lab) is (m' - m)·S
    pair_blocks = sorted(
        (idx.jj, p.jj, all(schwinger_image(*lab)[1] - lab[1] == idx.jj - p.jj
                           for lab in basis_labels(idx)))
        for idx, p in accidental_pairs(n, q_max))
    jz_ok = all(good for _, _, good in pair_blocks)
    ok = comm_norm < 1e-9 and jz_ok
    return ExchangeCommutationReport(n, q_max, len(basis), comm_norm, jz_ok,
                                     pair_blocks, skipped, ok)


@dataclass
class SchwingerReport:
    jj_max: int
    k_max: int
    dim: int
    involution_ok: bool
    conjugation_dev: float
    tested: int
    skipped: int
    ok: bool


def schwinger_check(jj_max: int, k_max: int) -> SchwingerReport:
    """On the truncated direct sum ⊕_j C^{2j+1} ⊗ Fock(k ≤ k_max):
    W² = 1 and W(J+ ⊗ a)W = J+ ⊗ a on all vectors that stay in bounds.

    W is the index vector of each label's image (-1 out of bounds), and
    J+ ⊗ a the half of ``coupling(labels)`` that raises m.  A column is
    tested when W maps it into bounds; amplitude of W(J+ ⊗ a)W that W sends
    out of bounds counts as deviation, since J+ ⊗ a stays in bounds.
    """
    require_int(jj_max, "jj_max", 0)
    require_int(k_max, "k_max", 0)
    labels = [(jj, mm, k) for jj in range(jj_max + 1)
              for mm in range(-jj, jj + 1, 2) for k in range(k_max + 1)]
    index = {lab: i for i, lab in enumerate(labels)}
    w = np.array([index.get(schwinger_image(*lab), -1) for lab in labels],
                 dtype=int)
    mm = np.array([lab[1] for lab in labels])
    up = np.where(mm[:, None] > mm, coupling(labels), 0.0)
    inb = w >= 0
    involution_ok = bool((w[w[inb]] == np.flatnonzero(inb)).all())
    cols = np.flatnonzero(inb)
    got = np.zeros((len(labels), len(cols)))
    got[w[inb]] = up[inb][:, w[cols]]  # W (J+ ⊗ a) W on the tested columns
    lost = up[~inb][:, w[cols]]  # the amplitude W sends out of bounds
    worst = float(np.abs(np.vstack([got - up[:, cols], lost])).max(initial=0.0))
    ok = involution_ok and worst < 1e-10
    return SchwingerReport(jj_max, k_max, len(labels), involution_ok, worst,
                           len(cols), len(labels) - len(cols), ok)


def verify_pi_universality(jj: int, tol: float = 1e-8) -> bool:
    """Level projectors plus the collective x generator close onto the full
    unitary algebra of the spin-j block: rank (2j+1)²."""
    require_int(jj, "jj", 0)
    d = jj + 1
    gens = []
    for r in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[r, r] = 1.0
        gens.append(1j * p)
    gens.append(1j * jx_operator(jj))
    return lie_closure(gens, tol=tol).rank == d * d

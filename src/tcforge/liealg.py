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
from .sectors import (SectorIndex, accidental_partner, basis_labels,
                      enumerate_sectors, j_min2, sector_dim)


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
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        return OperatorBasis((), 0)
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise ValueError("generators must share one square shape")
        if np.abs(g + g.conj().T).max() > 1e-9 * max(1.0, np.abs(g).max()):
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


def sector_rank_check(idx: SectorIndex, tol: float = 1e-8) -> bool:
    """True iff the coupling pulse and its z-conjugate generate the full
    special unitary algebra on the sector (rank d²-1); vacuous for d = 1."""
    d = sector_dim(idx)
    if d < 2:
        return True
    h = htc_block(idx)
    jz = jz_block(idx)
    hbar = 1j * (jz[:, None] * h - h * jz)
    basis = lie_closure([1j * h, 1j * hbar], tol=tol)
    return basis.rank == d * d - 1


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


def spin_ladder_anharmonicity(jj: int) -> bool:
    """Same condition for the bare spin ladder (no oscillator): the second
    differences are constant, so the condition fails whenever there is more
    than one coupling."""
    a2 = [Fraction(_ladder(jj, mm + 2), 2) for mm in range(-jj, jj, 2)]

    def at(i: int) -> Fraction:
        return a2[i] if 0 <= i < len(a2) else Fraction(0)

    diffs = [2 * at(i) - at(i + 1) - at(i - 1) for i in range(len(a2))]
    return all(diffs[i] != diffs[0] for i in range(1, len(diffs)))


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
    sectors = [s for s in enumerate_sectors(n, q_max) if sector_dim(s) >= 2]
    partner_pairs = []
    equal_nonpartner = []
    checked = 0
    for i, a in enumerate(sectors):
        for b in sectors[i + 1:]:
            if sector_dim(a) != sector_dim(b):
                continue
            checked += 1
            equal = energy_variance_exact(a) == energy_variance_exact(b)
            partnered = accidental_partner(a) == b
            if partnered:
                partner_pairs.append((a, b, equal))
            elif equal:
                equal_nonpartner.append((a, b))
    ok = not equal_nonpartner and all(eq for _, _, eq in partner_pairs)
    return VarianceSeparationReport(n, q_max, checked, partner_pairs,
                                    equal_nonpartner, ok)


def _truncated_basis(n: int, q_max: int) -> list[tuple[int, int, int]]:
    """(jj, mm, k) labels with charge ≤ q_max, ordered by (q, j desc, k)."""
    out = []
    for idx in enumerate_sectors(n, q_max):
        for lab in basis_labels(idx):
            out.append((idx.jj, lab.mm, lab.k))
    return out


def _exchange_pair_terms(jj: int, jj_p: int):
    """Raising-half matrix elements of the (j, j') exchange block, as
    (row_label, col_label) in (jj, mm, k) coordinates: the row lives in the
    filled spin-j' sector, the column in the unfilled spin-j sector."""
    terms = []
    for mm_p in range(-jj_p, jj_p + 1, 2):
        row = (jj_p, mm_p, jj - (jj_p + mm_p) // 2)  # k' = 2j - j' - m'
        col = (jj, mm_p - (jj - jj_p), (jj_p - mm_p) // 2)  # k = j' - m'
        terms.append((row, col))
    return terms


def _exchange_pairs(n: int, q_max: int):
    """Yield (jj, jj_p, terms) for every exchange pair block; terms is None
    when the filled-side charge n/2 - j' + 2j exceeds q_max, so the block
    cannot be represented on the truncation."""
    for jj in range(j_min2(n) + 2, n + 1, 2):
        # the smaller spin must be positive: spin-0 sectors carry no
        # coupling matrix to exchange
        for jj_p in range(2 - (n & 1), jj, 2):
            fits = (n - jj_p) // 2 + jj <= q_max
            yield jj, jj_p, _exchange_pair_terms(jj, jj_p) if fits else None


def _symmetric_fill(basis, terms) -> np.ndarray:
    """0/1 matrix on the basis with both (row, col) and (col, row) set for
    every term."""
    index = {lab: i for i, lab in enumerate(basis)}
    s = np.zeros((len(basis), len(basis)))
    for row, col in terms:
        s[index[row], index[col]] = s[index[col], index[row]] = 1.0
    return s


def build_exchange_operator(n: int, q_max: int):
    """The conserved exchange operator S on the charge-truncated basis.

    Pair blocks that the truncation cannot represent are skipped (returned
    for reporting); the kept blocks commute with the coupling Hamiltonian
    on the whole truncation.
    """
    basis = _truncated_basis(n, q_max)
    kept, skipped = [], []
    for jj, jj_p, terms in _exchange_pairs(n, q_max):
        if terms is None:
            skipped.append((jj, jj_p))
        else:
            kept.extend(terms)
    return _symmetric_fill(basis, kept), basis, skipped


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
    # entry of [J_z, S] at (row, col) is (m_row - m_col)·S
    pair_blocks = [(jj, jj_p, all(row[1] / 2 - col[1] / 2 == (jj - jj_p) / 2
                                  for row, col in terms))
                   for jj, jj_p, terms in _exchange_pairs(n, q_max)
                   if terms is not None]
    jz_ok = all(good for _, _, good in pair_blocks)
    ok = comm_norm < 1e-9 and jz_ok
    return ExchangeCommutationReport(n, q_max, len(basis), comm_norm, jz_ok,
                                     pair_blocks, skipped, ok)


def _schwinger_image(jj: int, mm: int, k: int) -> tuple[int, int, int]:
    """Relabeling that swaps the physical oscillator with the second
    virtual oscillator of the two-oscillator spin construction."""
    return ((jj + mm) // 2 + k, (jj + mm) // 2 - k, (jj - mm) // 2)


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
    W² = 1 and W(J+ ⊗ a)W = J+ ⊗ a on all vectors that stay in bounds."""
    labels = [(jj, mm, k) for jj in range(jj_max + 1)
              for mm in range(-jj, jj + 1, 2) for k in range(k_max + 1)]
    index = {lab: i for i, lab in enumerate(labels)}

    def w_image(lab):
        out = _schwinger_image(*lab)
        return out if out in index else None

    involution_ok = all(
        w_image(w_image(lab)) == lab
        for lab in labels if w_image(lab) is not None)

    def raise_op(lab):
        jj, mm, k = lab
        if k == 0 or mm == jj:
            return None, 0.0
        amp = np.sqrt(_ladder(jj, mm + 2) * k)
        return (jj, mm + 2, k - 1), amp

    worst = 0.0
    tested = skipped = 0
    for lab in labels:
        w1 = w_image(lab)
        if w1 is None:
            skipped += 1
            continue
        mid, amp1 = raise_op(w1)
        if mid is not None:
            w2 = w_image(mid)
            if w2 is None:
                skipped += 1
                continue
        direct, amp0 = raise_op(lab)
        tested += 1
        # compare W (J+ a) W |lab⟩ with (J+ a)|lab⟩ componentwise
        got = {} if mid is None else {w2: amp1}
        want = {} if direct is None else {direct: amp0}
        keys = set(got) | set(want)
        dev = max((abs(got.get(kk, 0.0) - want.get(kk, 0.0)) for kk in keys),
                  default=0.0)
        worst = max(worst, dev)
    ok = involution_ok and worst < 1e-10
    return SchwingerReport(jj_max, k_max, len(labels), involution_ok, worst,
                           tested, skipped, ok)


def verify_pi_universality(jj: int, tol: float = 1e-8) -> bool:
    """Level projectors plus the collective x generator close onto the full
    unitary algebra of the spin-j block: rank (2j+1)²."""
    d = jj + 1
    gens = []
    for r in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[r, r] = 1.0
        gens.append(1j * p)
    gens.append(1j * jx_operator(jj))
    return lie_closure(gens, tol=tol).rank == d * d

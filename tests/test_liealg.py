import numpy as np
import pytest
from fractions import Fraction

from tcforge import liealg as la
from tcforge.operators import _ladder, htc_block, jx_operator, jz_block
from tcforge.sectors import (SectorIndex, accidental_partner, basis_labels,
                             enumerate_sectors, schwinger_image, sector_dim)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_closure_pauli():
    assert la.lie_closure([1j * SX, 1j * SZ]).rank == 3


def test_closure_charge2_sector():
    # both generators are traceless here (Tr J_z = 0 in this sector), so
    # the closure is the special unitary algebra: rank 8
    idx = SectorIndex(2, 2, 2)
    gens = [1j * htc_block(idx), 1j * np.diag(jz_block(idx))]
    assert la.lie_closure(gens).rank == 8
    # a sector where J_z carries trace picks up the extra central direction
    idx = SectorIndex(2, 1, 2)
    gens = [1j * htc_block(idx), 1j * np.diag(jz_block(idx))]
    assert la.lie_closure(gens).rank == 4


def test_closure_spin1_xy_stays_small():
    j1x = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    j1y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]],
                   dtype=complex) / np.sqrt(2)
    assert la.lie_closure([1j * j1x, 1j * j1y]).rank == 3


def test_closure_idempotent_and_monotone():
    gens = [1j * SX, 1j * SZ]
    basis = la.lie_closure(gens)
    again = la.lie_closure(basis.elements)
    assert again.rank == basis.rank
    assert la.lie_closure([1j * SX]).rank <= basis.rank


def test_closure_of_no_generators_is_empty():
    assert la.lie_closure([]) == la.OperatorBasis((), 0)


def test_closure_rejects_non_skew():
    with pytest.raises(ValueError):
        la.lie_closure([SX])
    for other in (1j * np.eye(3), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="^generators must share one square shape$"):
            la.lie_closure([1j * SX, other])


def test_closure_rejects_non_finite():
    # one NaN entry once read as a generator of full rank (8 = dim su(3))
    for bad in (np.nan, np.inf):
        g = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, bad]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            la.lie_closure([1j * np.diag([1.0, -1.0, 0.0]), g])


@pytest.mark.parametrize("n", range(2, 6))
def test_sector_rank_check(n):
    for idx in enumerate_sectors(n, 12):
        if 2 <= sector_dim(idx) <= 7:
            assert la.sector_rank_check(idx), idx
    # one-dimensional sectors are vacuous
    assert la.sector_rank_check(SectorIndex(n, 0, n))


def _ref_lie_closure(generators, tol=1e-8, passes=1):
    """The unbounded breadth-first closure; passes=1 is the one-pass
    Gram-Schmidt that lie_closure used before its dimension bound."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    d = gens[0].shape[0]
    basis = []
    flat = np.zeros((0, d * d), dtype=complex)

    def try_add(cand):
        nonlocal flat
        nrm = np.linalg.norm(cand)
        if nrm < 1e-14:
            return
        resid = cand
        for _ in range(passes):
            coeffs = (flat.conj() @ resid.ravel()).real
            resid = resid - (coeffs @ flat).reshape(d, d)
            rn = np.linalg.norm(resid)
            if rn <= tol * nrm:
                return
        basis.append(resid / rn)
        flat = np.vstack([flat, basis[-1].ravel()])

    for g in gens:
        try_add(g)
    frontier = 0
    while frontier < len(basis):
        k = frontier
        frontier += 1
        for i in range(k):
            try_add(basis[k] @ basis[i] - basis[i] @ basis[k])
    return basis


def _rank_check_generators(idx):
    h, jz = htc_block(idx), np.diag(jz_block(idx))
    return [1j * h, 1j * (1j * (jz @ h - h @ jz))]


def _pi_generators(jj):
    gens = [1j * np.diag(np.eye(jj + 1)[r]) for r in range(jj + 1)]
    return gens + [1j * jx_operator(jj)]


def test_bounded_closure_matches_unbounded():
    j1x = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    j1y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2)
    idx = SectorIndex(2, 1, 2)
    cases = [([1j * htc_block(idx), 1j * np.diag(jz_block(idx))], 4),
             ([1j * j1x, 1j * j1y], 3)]
    cases += [(_pi_generators(jj), (jj + 1) ** 2) for jj in range(1, 7)]
    cases += [(_rank_check_generators(s), sector_dim(s) ** 2 - 1)
              for n in range(1, 7) for s in enumerate_sectors(n, 12)
              if 2 <= sector_dim(s) <= 7]
    for gens, rank in cases:
        got = la.lie_closure(gens)
        full = _ref_lie_closure(gens, passes=2)
        assert got.rank == len(full) == rank
        assert all(np.array_equal(a, b) for a, b in zip(got.elements, full))
        # the one-pass basis differs from it by at most 1.6e-12 on these cases
        one_pass = _ref_lie_closure(gens)
        assert len(one_pass) == rank
        assert np.abs(np.array(got.elements) - np.array(one_pass)).max() < 1e-9


def test_large_sectors_reach_full_rank():
    for idx in (SectorIndex(9, 14, 9), SectorIndex(10, 15, 10),
                SectorIndex(11, 17, 11)):
        assert la.sector_rank_check(idx), idx
    # the rank counts only if the basis is orthonormal
    flat = np.array([e.ravel() for e in la.lie_closure(
        _rank_check_generators(SectorIndex(11, 17, 11))).elements])
    assert np.abs((flat.conj() @ flat.T).real - np.eye(143)).max() < 1e-12
    assert la.verify_pi_universality(11)


@pytest.mark.parametrize("jj,traceless,rank", [(11, False, 72), (12, False, 84),
                                               (12, True, 84)])
def test_closure_of_a_proper_subalgebra_stays_proper(jj, traceless, rank):
    # iJ_x and iJ_z² both commute with exp(-iπJ_x), so they generate a proper
    # subalgebra; a cutoff relative to each bracket's own norm let rounding
    # in brackets of nearly commuting elements fill u(d) from d = 12
    jz2 = np.diag((np.arange(jj, -jj - 1, -2) / 2) ** 2)
    if traceless:
        jz2 -= np.trace(jz2) / (jj + 1) * np.eye(jj + 1)
    assert la.lie_closure([1j * jx_operator(jj), 1j * jz2]).rank == rank


def test_closure_keeps_a_generator_at_any_nonzero_norm():
    assert la.lie_closure([1e-20j * SX]).rank == 1
    assert la.lie_closure([1e-20j * SX, 1e-20j * SZ]).rank == 3
    assert la.lie_closure([0 * SX]).rank == 0


def test_closure_reads_a_small_identity_component_at_tol():
    # 1e-5·i·I puts the closure in u(2), not su(2): the identity test runs at
    # tol, far below that component
    assert la.lie_closure([1j * SX, 1j * SZ + 1e-5j * np.eye(2)]).rank == 4


def test_anharmonicity_closed_form():
    for n in (2, 3, 4, 6):
        for idx in enumerate_sectors(n, 10):
            rep = la.anharmonicity_check(idx)
            assert rep.matches_closed_form, idx
            assert rep.expected == [
                Fraction(2 * (n + idx.q - 1) - 6 * y) for y in rep.ys]
            if sector_dim(idx) >= 2:
                assert rep.condition_holds


def test_anharmonicity_slope():
    rep = la.anharmonicity_check(SectorIndex(4, 6, 4))
    diffs = rep.second_diffs
    assert all(diffs[i] - diffs[i + 1] == 6 for i in range(len(diffs) - 1))


def test_spin_ladder_fails_condition():
    # the bare spin ladder (no oscillator), zero beyond its ends, has constant
    # second differences, so the condition fails for more than one coupling
    for jj in (4, 6):
        a2 = [0] + [_ladder(jj, mm) for mm in range(jj, -jj, -2)] + [0]
        diffs = {2 * a2[i] - a2[i - 1] - a2[i + 1] for i in range(1, len(a2) - 1)}
        assert len(diffs) == 1


def test_variance_separation():
    for n in range(2, 7):
        rep = la.variance_separation_check(n, 12)
        assert rep.ok
        assert not rep.equal_nonpartner
        want_pairs = sum(1 for jj in range(2 - (n & 1) + 2, n + 1, 2)
                         for jjp in range(2 - (n & 1), jj, 2)
                         if (n - jjp) // 2 + jj <= 12)
        assert len(rep.partner_pairs) == want_pairs


def test_variance_separation_matches_pairwise_loop():
    # the check computes each variance once; a plain double loop over the
    # same-dimension pairs must give the whole report, lists in order
    from tcforge.operators import energy_variance_exact
    for n in range(1, 9):
        for q_max in range(13):
            sectors = [s for s in enumerate_sectors(n, q_max) if sector_dim(s) >= 2]
            checked, partner_pairs, equal_nonpartner = 0, [], []
            for i, a in enumerate(sectors):
                for b in sectors[i + 1:]:
                    if sector_dim(a) != sector_dim(b):
                        continue
                    checked += 1
                    equal = energy_variance_exact(a) == energy_variance_exact(b)
                    if accidental_partner(a) == b:
                        partner_pairs.append((a, b, equal))
                    elif equal:
                        equal_nonpartner.append((a, b))
            ok = not equal_nonpartner and all(eq for _, _, eq in partner_pairs)
            assert la.variance_separation_check(n, q_max) == la.VarianceSeparationReport(
                n, q_max, checked, partner_pairs, equal_nonpartner, ok), (n, q_max)


def test_symmetric_variance_increases_when_filled():
    from tcforge.operators import energy_variance_exact
    for n in (2, 4):
        vals = [energy_variance_exact(SectorIndex(n, q, n))
                for q in range(n, n + 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exchange_commutation(n):
    rep = la.check_exchange_commutation(n, 12)
    assert rep.comm_norm < 1e-9
    assert rep.jz_commutation_exact
    assert rep.ok


def test_exchange_trivial_for_two_qubits():
    # pairing needs a positive smaller spin, so S vanishes at n = 2
    s, _, skipped = la.build_exchange_operator(2, 8)
    assert not s.any()
    assert not skipped


def test_exchange_square_is_projector():
    # at n = 3 the only pair is (2j, 2j') = (3, 1), so S is that block
    sp, _, skipped = la.build_exchange_operator(3, 6)
    assert not skipped
    sq = sp @ sp
    support = np.flatnonzero(np.abs(np.diag(sq)) > 0.5)
    assert len(support) == 4  # two 2-dim sectors exchanged
    assert np.allclose(sq[np.ix_(support, support)], np.eye(4))
    assert np.allclose(np.delete(np.delete(sq, support, 0), support, 1), 0)


def test_exchange_swaps_example_sectors():
    # the n = 3 pair: (q=1, j=3/2) levels against (q=4, j=1/2)
    sp, basis, _ = la.build_exchange_operator(3, 6)
    index = {lab: i for i, lab in enumerate(basis)}
    src = index[(3, -1, 0)]   # |3/2,-1/2⟩⊗|0⟩
    dst = index[(1, 1, 2)]    # |1/2,+1/2⟩⊗|2⟩
    assert sp[dst, src] == 1.0


def test_exchange_skips_pairs_above_the_truncation():
    # filled partners of (2j, 2j') = (6, 2), (6, 4) sit at q = 8, 7 > 6
    rep = la.check_exchange_commutation(6, 6)
    assert rep.skipped == [(6, 2), (6, 4)]
    assert rep.pair_blocks == [(4, 2, True)]
    assert rep.comm_norm == 0.0
    assert rep.ok
    assert la.check_exchange_commutation(5, 5).skipped == [(5, 1), (5, 3)]


def test_schwinger_map():
    rep = la.schwinger_check(8, 10)
    assert rep.involution_ok
    assert rep.conjugation_dev < 1e-10
    assert rep.ok
    # the worked single-state example
    assert schwinger_image(2, 0, 2) == (3, -1, 1)
    # j + m is preserved
    for jj in range(0, 6):
        for mm in range(-jj, jj + 1, 2):
            for k in range(4):
                jj2, mm2, _ = schwinger_image(jj, mm, k)
                assert jj + mm == jj2 + mm2


def _ref_schwinger_check(jj_max, k_max, image=schwinger_image):
    """schwinger_check label by label: (involution_ok, dev, tested, skipped)."""
    labels = [(jj, mm, k) for jj in range(jj_max + 1)
              for mm in range(-jj, jj + 1, 2) for k in range(k_max + 1)]

    def w(lab):
        out = image(*lab)
        return out if out in labels else None

    def raise_op(lab):  # J+ ⊗ a: (target label or None, amplitude)
        jj, mm, k = lab
        if k == 0 or mm == jj:
            return None, 0.0
        return (jj, mm + 2, k - 1), np.sqrt(_ladder(jj, mm + 2) * k)

    involution_ok = all(w(w(lab)) == lab for lab in labels if w(lab))
    dev, tested = 0.0, 0
    for lab in labels:
        if w(lab) is None:
            continue
        mid, amp1 = raise_op(w(lab))
        tested += 1
        direct, amp0 = raise_op(lab)
        got = {} if mid is None else {w(mid): amp1}  # key None: out of bounds
        want = {} if direct is None else {direct: amp0}
        dev = max([dev] + [abs(got.get(x, 0.0) - want.get(x, 0.0))
                           for x in set(got) | set(want)])
    return involution_ok, dev, tested, len(labels) - tested


def test_schwinger_check_matches_label_loop():
    for jj_max in range(0, 10, 3):
        for k_max in range(0, 12, 3):
            rep = la.schwinger_check(jj_max, k_max)
            assert (rep.involution_ok, rep.conjugation_dev, rep.tested,
                    rep.skipped) == _ref_schwinger_check(jj_max, k_max)


def _broken_image(jj, mm, k):
    """W with k' raised by one wherever k = 1: neither an involution nor a
    symmetry of J+ ⊗ a."""
    jj2, mm2, k2 = schwinger_image(jj, mm, k)
    return jj2, mm2, k2 + (k == 1)


def test_schwinger_check_counts_lost_amplitude(monkeypatch):
    # columns whose W(J+a)W amplitude leaves the truncation are tested, not
    # skipped: only the 210 labels that W maps out of bounds are skipped
    monkeypatch.setattr(la, "schwinger_image", _broken_image)
    rep = la.schwinger_check(8, 10)
    assert (rep.tested, rep.skipped) == (285, 210)
    assert not rep.involution_ok and not rep.ok
    assert (rep.involution_ok, rep.conjugation_dev, rep.tested,
            rep.skipped) == _ref_schwinger_check(8, 10, _broken_image)


def test_schwinger_image_maps_partner_labels():
    # W sends a partnered sector's basis, in order, onto its partner's
    for n in range(1, 13):
        for idx in enumerate_sectors(n, 30):
            p = accidental_partner(idx)
            if p is None:
                continue
            image = [schwinger_image(*lab) for lab in basis_labels(idx)]
            assert image == basis_labels(p)


@pytest.mark.parametrize("jj,want", [(1, 4), (2, 9), (4, 25)])
def test_pi_universality(jj, want):
    assert la.verify_pi_universality(jj)

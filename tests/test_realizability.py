import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tcforge import dynamics as dyn, liealg as la, realizability as rz
from tcforge.dynamics import Circuit, Gate
from tcforge.operators import jx_operator
from tcforge.sectors import SectorIndex, j_min2


def all_levels(n):
    return [(jj, mm) for jj in range(j_min2(n), n + 1, 2)
            for mm in range(-jj, jj + 1, 2)]


def affine_target(n, alpha, beta, rng):
    phases = {}
    for jj, mm in all_levels(n):
        if mm == -jj:
            phases[(jj, mm)] = (alpha + (jj / 2) * beta) % (2 * np.pi)
        else:
            phases[(jj, mm)] = float(rng.uniform(0, 2 * np.pi))
    return rz.PiU1Target(n, phases)


def test_small_n_unconstrained():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        for _ in range(25):
            phases = {lvl: float(rng.uniform(0, 2 * np.pi))
                      for lvl in all_levels(n)}
            assert rz.check_pi_u1(rz.PiU1Target(n, phases)).realizable


def test_cz_family_table():
    for n in range(2, 9):
        cz = rz.check_pi_u1(rz.cz_controlled_target(n))
        anti = rz.check_pi_u1(rz.anti_cz_target(n))
        assert cz.realizable == (n < 4)
        assert anti.realizable
        if n >= 4:
            assert cz.violation["constraint"] == rz.AFFINE_LOWEST_WEIGHT
    v = rz.check_pi_u1(rz.anti_cz_target(4))
    assert abs(v.alpha) < 1e-9 and abs(v.beta) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.floats(-np.pi, np.pi),
       st.floats(-2 * np.pi, 2 * np.pi - 1e-9), st.integers(0, 10**6))
def test_affine_targets_accepted(n, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    v = rz.check_pi_u1(affine_target(n, alpha, beta, rng))
    assert v.realizable
    assert v.max_residual < 1e-8


def test_constraint_gap():
    for n, want in [(2, 0), (3, 0), (4, 1), (5, 1), (6, 2), (7, 2), (8, 3)]:
        assert rz.constraint_gap(n) == want


def test_incomplete_target_rejected():
    with pytest.raises(ValueError):
        rz.PiU1Target(2, {(2, 2): 0.0})


def test_check_diagonal():
    # quadratic phases on m ≤ 0 admit no affine fit
    phases = {mm: float((mm / 2) ** 2) for mm in range(-4, 5, 2)}
    assert not rz.check_diagonal(4, phases).realizable
    # exactly affine passes and recovers the parameters
    a, b = 0.7, -1.3
    phases = {mm: a + (mm / 2) * b for mm in range(-4, 5, 2)}
    v = rz.check_diagonal(4, phases)
    assert v.realizable
    assert abs(v.alpha - a) < 1e-9 and abs(v.beta - b) < 1e-9
    # n = 2 has only two constrained points
    rng = np.random.default_rng(4)
    for _ in range(20):
        phases = {mm: float(rng.uniform(0, 2 * np.pi))
                  for mm in range(-2, 3, 2)}
        assert rz.check_diagonal(2, phases).realizable


def test_diagonal_agrees_with_pi_u1_embedding():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            diag = {mm: float(rng.uniform(0, 2 * np.pi))
                    for mm in range(-n, n + 1, 2)}
            lifted = {(jj, mm): diag[mm] for jj, mm in all_levels(n)}
            a = rz.check_diagonal(n, diag).realizable
            b = rz.check_pi_u1(rz.PiU1Target(n, lifted)).realizable
            assert a == b


def random_circuit(n, rng, n_gates=None):
    count = n_gates or int(rng.integers(5, 30))
    gates = [Gate(str(rng.choice(["tc", "rz"])), float(rng.uniform(-2, 2)))
             for _ in range(count)]
    return Circuit(n, gates)


def test_block_round_trip_accepts():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        for _ in range(15):
            q_max = int(rng.integers(3, 9))
            bu = dyn.apply_circuit(random_circuit(n, rng), q_max,
                                   backend="charge")
            v = rz.check_block_target(rz.block_target_from_unitary(bu))
            assert v.realizable
            assert v.max_residual < 1e-8


def test_block_recovers_rotation_angle():
    # the fitted θ_z matches minus the summed z angles, modulo the branch
    n, q_max = 3, 6
    angles = [0.7, -0.3, 1.1]
    gates = [Gate("tc", 0.4)]
    for a in angles:
        gates += [Gate("rz", a), Gate("tc", -0.2)]
    bu = dyn.apply_circuit(Circuit(n, gates), q_max, backend="charge")
    v = rz.check_block_target(rz.block_target_from_unitary(bu))
    assert v.realizable
    dev = min(abs(float(rz.wrap_pi(v.beta + sum(angles) + 2 * np.pi * w)))
              for w in (-2, -1, 0, 1, 2))
    assert dev < 1e-8


def haar(d, rng):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_block_rejects_independent_pair():
    rng = np.random.default_rng(8)
    bu = dyn.apply_circuit(Circuit(3, [Gate("tc", 0.5)]), 5, backend="charge")
    blocks = dict(bu.blocks)
    blocks[SectorIndex(3, 1, 3)] = haar(2, rng)
    blocks[SectorIndex(3, 4, 1)] = haar(2, rng)
    v = rz.check_block_target(rz.BlockTarget(3, 5, blocks))
    assert not v.realizable
    assert v.violation["constraint"] == rz.PARTNER_EQUALITY


@pytest.mark.parametrize("seed", range(5))
def test_partner_candidates_follow_a_small_trace_phase(seed):
    # |tr(W†V)| ≈ 1e-4 between the first pair's blocks lies above the 1e-6
    # below which θ_z candidates come from one entry's phase instead, so the
    # reported residual is the least partner deviation over the candidates
    # e^{-i·jgap·θ_z} = tr/|tr|
    from tcforge.sectors import accidental_pairs
    rng = np.random.default_rng(seed)
    n, q_max = 4, 8
    blocks = dict(dyn.apply_circuit(random_circuit(n, rng), q_max, backend="charge").blocks)
    (a, b), = accidental_pairs(n, q_max)
    jgap = (a.jj - b.jj) // 2
    # V = W·X, X unitary with tr X = e^{iφ}(e^{iε} - 1): the d-th roots of
    # unity, one of them moved by ε = 1e-4
    lam = (rng.uniform(-np.pi, np.pi) + 2 * np.pi * np.arange(a.dim) / a.dim
           + 1e-4 * np.eye(a.dim)[0])
    u = haar(a.dim, rng)
    blocks[a] = blocks[b] @ (u * np.exp(1j * lam)) @ u.conj().T
    tr = np.trace(blocks[b].conj().T @ blocks[a])
    assert 0.9e-4 < abs(tr) < 1.1e-4
    tz = -(np.angle(tr) + 2 * np.pi * np.arange(-10, 11)) / jgap
    tz = tz[(-2 * np.pi <= tz) & (tz < 2 * np.pi)]
    least = min(np.abs(blocks[a] - np.exp(-1j * jgap * t) * blocks[b]).max() for t in tz)
    v = rz.check_block_target(rz.BlockTarget(n, q_max, blocks))
    assert v.violation["constraint"] == rz.PARTNER_EQUALITY
    assert abs(v.max_residual - least) <= 1e-8


def test_block_rejects_bad_determinant_phases():
    # identity blocks except one sector with a phase no affine fit matches
    n, q_max = 4, 6
    blocks = {}
    from tcforge.sectors import enumerate_sectors
    for idx in enumerate_sectors(n, q_max):
        blocks[idx] = np.eye(idx.dim, dtype=complex)
    # put independent phases on three filled symmetric sectors (d = 5)
    for q, ph in ((6, 0.9), (7, 1.7), (8, 0.4)):
        idx = SectorIndex(n, q, n)
        blocks[idx] = np.exp(1j * ph / idx.dim) * np.eye(idx.dim)
    v = rz.check_block_target(rz.BlockTarget(n, q_max, blocks))
    assert not v.realizable
    assert v.violation["constraint"] == rz.DETERMINANT_PHASE


def test_block_target_rejects_nan_block():
    from tcforge.sectors import enumerate_sectors
    blocks = {idx: np.eye(idx.dim, dtype=complex)
              for idx in enumerate_sectors(2, 2)}
    blocks[SectorIndex(2, 1, 2)] = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        rz.BlockTarget(2, 2, blocks)
    blocks[SectorIndex(2, 1, 2)] = np.diag([1.0, np.nan]).astype(complex)
    with pytest.raises(ValueError, match="not unitary"):
        rz.BlockTarget(2, 2, blocks)
    blocks[SectorIndex(2, 1, 2)] = np.diag([1.0, np.inf]).astype(complex)
    with pytest.raises(ValueError, match="not unitary"):  # with no RuntimeWarning
        rz.BlockTarget(2, 2, blocks)


def test_all_identity_blocks_trivial():
    from tcforge.sectors import enumerate_sectors
    n, q_max = 3, 5
    blocks = {idx: np.eye(idx.dim, dtype=complex)
              for idx in enumerate_sectors(n, q_max)}
    v = rz.check_block_target(rz.BlockTarget(n, q_max, blocks))
    assert v.realizable
    assert abs(v.alpha) < 1e-9 and abs(v.beta) < 1e-9


def test_symmetric_phase_constraint():
    n, q_max = 3, 7
    gates = [Gate("tc", 0.4), Gate("rz", 1.1), Gate("tc", -0.8),
             Gate("rz", 0.3)]
    bu = dyn.apply_circuit(Circuit(n, gates), q_max, backend="charge")
    theta_q = [float(np.angle(np.linalg.det(bu.blocks[SectorIndex(n, q, n)])))
               for q in range(q_max + 1)]
    assert rz.check_symmetric_phase_constraint(n, q_max, theta_q).realizable
    v = rz.check_symmetric_phase_constraint(2, 4, [0.0] * 5)
    assert v.realizable and abs(v.alpha) < 1e-9 and abs(v.beta) < 1e-9
    # deliberately inconsistent phases on the n = 2 ladder
    bad = [0.3, 1.234567, 2.71828, 0.1, 0.2]
    assert not rz.check_symmetric_phase_constraint(2, 4, bad).realizable


def test_tied_residuals_report_the_first_sector():
    # q = 1 and q = 2 tie within tol at θ_z = α = 0; whichever holds the
    # larger last bits, the report names the first of them, q = 1
    for theta_q in ([0.0, 2.5, 2.5 + 1e-12, 0.0], [0.0, 2.5 + 1e-12, 2.5, 0.0]):
        v = rz.check_symmetric_phase_constraint(3, 3, theta_q)
        assert not v.realizable
        assert v.violation["sectors"] == [1, 3]
        assert v.violation["residual"] == v.max_residual == 2.5 + 1e-12


def test_accepted_two_qubit_targets_compile():
    # every realizable verdict at n = 2 is constructively confirmed
    from tcforge.synthesis import compile_two_qubit, wrap_pi
    rng = np.random.default_rng(55)
    for _ in range(15):
        phases = {(jj, mm): float(rng.uniform(0, 2 * np.pi))
                  for jj, mm in all_levels(2)}
        v = rz.check_pi_u1(rz.PiU1Target(2, phases))
        assert v.realizable
        singlet = phases[(0, 0)]
        res = compile_two_qubit(float(wrap_pi(phases[(2, 2)] - singlet)),
                                float(wrap_pi(phases[(2, 0)] - singlet)),
                                float(wrap_pi(phases[(2, -2)] - singlet)))
        assert res.residual < 1e-8


def test_state_convertible():
    psi = {(2, 0): 1.0}        # |j=1, m=1⟩⊗|0⟩, charge 2
    phi = {(-2, 2): 1.0}       # |j=1, m=-1⟩⊗|2⟩, charge 2
    assert rz.state_convertible(2, psi, psi)
    assert rz.state_convertible(2, psi, phi)
    assert not rz.state_convertible(2, {(2, 0): 1.0}, {(-2, 0): 1.0})
    s = 1 / np.sqrt(2)
    mixed = {(2, 0): s, (0, 0): s}       # charges 2 and 1
    other = {(-2, 2): s, (-2, 1): s}     # charges 2 and 1
    assert rz.state_convertible(2, mixed, other)
    with pytest.raises(ValueError):
        rz.state_convertible(2, {(2, 0): 0.5}, phi)


# Reference: the per-sector decision procedure the batched check replaced,
# one scalar equation (c, d, θ, sector) per sector and nested winding loops.

def _ref_det_equations(target):
    from tcforge.operators import charge_vector
    from tcforge.sectors import enumerate_sectors
    return [(float(charge_vector(idx, "jz")), idx.dim,
             float(np.angle(np.linalg.det(target.blocks[idx]))), idx)
            for idx in enumerate_sectors(target.n, target.q_max)]


def _ref_verify(eqs, theta_z, alpha):
    worst, worst_idx = 0.0, None
    for c, d, theta, idx in eqs:
        r = abs(float(rz.wrap_pi(c * theta_z + d * alpha - theta)))
        if r > worst:
            worst, worst_idx = r, idx
    return worst, worst_idx


def _ref_solve(eqs, tol, theta_z_candidates=None):
    if theta_z_candidates is not None:
        c0, d0, th0, _ = min(eqs, key=lambda e: e[1])
        w_max = int(np.ceil(abs(c0) + d0 / 2)) + 2
        for tz in theta_z_candidates:
            for w in range(-w_max, w_max + 1):
                alpha = (th0 - c0 * tz + 2 * np.pi * w) / d0
                if -np.pi <= alpha < np.pi and _ref_verify(eqs, tz, alpha)[0] <= tol:
                    return float(tz), float(alpha)
        return None
    ranked = sorted(eqs, key=lambda e: abs(e[0]) + e[1])
    pair = next(((a, b, a[0] * b[1] - b[0] * a[1])
                 for i, a in enumerate(ranked) for b in ranked[i + 1:]
                 if abs(a[0] * b[1] - b[0] * a[1]) > 1e-9), None)
    if pair is None:  # all rows parallel
        c0, d0, th0, _ = ranked[0]
        for w in range(-(d0 + 2), d0 + 3):
            alpha = (th0 + 2 * np.pi * w) / d0
            if -np.pi <= alpha < np.pi and _ref_verify(eqs, 0.0, alpha)[0] <= tol:
                return 0.0, float(alpha)
        return None
    (ci, di, ti, _), (ck, dk, tk, _), det = pair
    wi_max = int(np.ceil(abs(ci) + di / 2)) + 1
    wk_max = int(np.ceil(abs(ck) + dk / 2)) + 1
    for wi in range(-wi_max, wi_max + 1):
        for wk in range(-wk_max, wk_max + 1):
            ri = ti + 2 * np.pi * wi
            rk = tk + 2 * np.pi * wk
            tz = (dk * ri - di * rk) / det
            al = (-ck * ri + ci * rk) / det
            if (-2 * np.pi <= tz < 2 * np.pi and -np.pi <= al < np.pi
                    and _ref_verify(eqs, tz, al)[0] <= tol):
                return float(tz), float(al)
    return None


def _ref_phase_verdict(eqs, tol, theta_z_candidates=None):
    sol = _ref_solve(eqs, tol, theta_z_candidates)
    if sol is None:
        worst, _ = _ref_verify(eqs, 0.0, 0.0)
        # a tie goes to the first sector within tol of the worst
        idx = next(i for c, d, th, i in eqs
                   if abs(float(rz.wrap_pi(c * 0.0 + d * 0.0 - th))) >= worst - tol)
        return rz.RealizabilityVerdict(
            False, violation={"constraint": rz.DETERMINANT_PHASE,
                              "sectors": None if worst == 0 else [idx.q, idx.jj],
                              "residual": worst},
            max_residual=worst)
    tz, al = sol
    return rz.RealizabilityVerdict(True, al, tz,
                                   max_residual=_ref_verify(eqs, tz, al)[0])


def _ref_check_block_target(target, tol=1e-8):
    from tcforge.sectors import accidental_pairs
    pairs = accidental_pairs(target.n, target.q_max)
    tz_candidates = None
    if pairs:
        idx, p = pairs[0]
        tz_candidates = rz._pair_phase_candidates(
            target.blocks[idx], target.blocks[p], (idx.jj - p.jj) // 2)
        surviving, fails = [], []
        for tz in tz_candidates:
            devs = [float(np.abs(target.blocks[a] - np.exp(
                -1j * ((a.jj - b.jj) // 2) * tz) * target.blocks[b]).max())
                for a, b in pairs]
            if max(devs) <= tol:
                surviving.append(tz)
            else:
                fails.append((max(devs), devs))
        if not surviving:
            # ties go to the first candidate within tol of the best, and to
            # its first pair within tol of its worst
            best = min(worst for worst, _ in fails)
            worst, devs = next(f for f in fails if f[0] <= best + tol)
            a, b = next(p for p, dev in zip(pairs, devs) if dev >= worst - tol)
            return rz.RealizabilityVerdict(
                False, violation={"constraint": rz.PARTNER_EQUALITY,
                                  "sectors": [a.q, a.jj, b.q, b.jj],
                                  "residual": worst},
                max_residual=worst)
        tz_candidates = surviving
    return _ref_phase_verdict(_ref_det_equations(target), tol, tz_candidates)


def _phase_on_block(target, idx, phase):
    blocks = dict(target.blocks)
    blocks[idx] = blocks[idx] * np.exp(1j * phase)
    return rz.BlockTarget(target.n, target.q_max, blocks)


def test_batched_block_check_matches_per_sector_reference():
    from tcforge.sectors import accidental_pairs, enumerate_sectors
    rng = np.random.default_rng(2024)
    seen = set()
    for n in range(1, 6):
        for q_max in range(0, 9):
            for _ in range(4):
                bu = dyn.apply_circuit(random_circuit(n, rng), q_max,
                                       backend="charge")
                target = rz.block_target_from_unitary(bu)
                sectors = enumerate_sectors(n, q_max)
                paired = [s for pair in accidental_pairs(n, q_max) for s in pair]
                picks = [sectors[int(rng.integers(len(sectors)))]]
                if paired:
                    picks.append(paired[int(rng.integers(len(paired)))])
                cases = [target] + [
                    _phase_on_block(target, s, float(rng.uniform(0.5, 2 * np.pi - 0.5)))
                    for s in picks]
                for t in cases:
                    got = rz.check_block_target(t).to_json_dict()
                    assert got == _ref_check_block_target(t).to_json_dict()
                    seen.add((got["realizable"],
                              (got["violation"] or {}).get("constraint"),
                              len(sectors) == 1, bool(paired)))
    # every branch of the decision was exercised: a single row (all rows
    # parallel), partner candidates, and both kinds of rejection
    assert (True, None, True, False) in seen
    assert (True, None, False, True) in seen
    assert (False, rz.PARTNER_EQUALITY, False, True) in seen
    assert (False, rz.DETERMINANT_PHASE, False, True) in seen
    assert (False, rz.DETERMINANT_PHASE, False, False) in seen


def test_batched_symmetric_constraint_matches_reference():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        for q_max in range(0, 9):
            for theta_q in ([0.0] * (q_max + 1),
                            list(rng.uniform(-np.pi, np.pi, q_max + 1))):
                eqs = [((min(q, n) + 1) * (q - n) / 2 if q <= n else 0.0,
                        min(q, n) + 1, th, SectorIndex(n, q, n))
                       for q, th in enumerate(theta_q)]
                got = rz.check_symmetric_phase_constraint(n, q_max, theta_q)
                assert got.to_json_dict() == _ref_phase_verdict(eqs, 1e-8).to_json_dict()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 8), st.integers(0, 10**6),
       st.floats(0.5, 2 * np.pi - 0.5))
def test_single_block_phase_perturbation_rejected(n, q_max, seed, phase):
    from tcforge.sectors import accidental_pairs, enumerate_sectors
    rng = np.random.default_rng(seed)
    bu = dyn.apply_circuit(random_circuit(n, rng), q_max, backend="charge")
    target = rz.block_target_from_unitary(bu)
    sectors = enumerate_sectors(n, q_max)
    idx = sectors[int(rng.integers(len(sectors)))]
    # dim·φ ≡ 0 (mod 2π) keeps the determinant, and the target realizable:
    # -U on an even-dimensional block, for one
    assume(abs(float(rz.wrap_pi(idx.dim * phase))) > 1e-3)
    v = rz.check_block_target(_phase_on_block(target, idx, phase))
    assert not v.realizable
    assert v.violation["constraint"] in (rz.PARTNER_EQUALITY, rz.DETERMINANT_PHASE)
    if v.violation["constraint"] == rz.PARTNER_EQUALITY:
        assert any(idx in pair for pair in accidental_pairs(n, q_max))


def test_block_target_messages_name_first_bad_sector():
    from tcforge.sectors import enumerate_sectors
    n, q_max = 3, 4
    blocks = {idx: np.eye(idx.dim, dtype=complex)
              for idx in enumerate_sectors(n, q_max)}
    late, early = SectorIndex(3, 4, 3), SectorIndex(3, 2, 3)
    for bad in (late, early):
        blocks[bad] = 2 * np.eye(bad.dim, dtype=complex)
    with pytest.raises(ValueError, match=rf"^block for {re.escape(repr(early))} is not unitary$"):
        rz.BlockTarget(n, q_max, blocks)
    blocks[early] = np.eye(early.dim + 1, dtype=complex)
    with pytest.raises(ValueError, match=r"has shape \(4, 4\)$"):
        rz.BlockTarget(n, q_max, blocks)
    del blocks[early]
    with pytest.raises(ValueError, match=rf"^missing block for {re.escape(repr(early))}$"):
        rz.BlockTarget(n, q_max, blocks)


@pytest.mark.parametrize("top", range(1, 8))
def test_padded_stack_determinants_match_per_block(top):
    # (n, q_max) whose largest block dim is top, with every dim d ≤ top present
    from tcforge.sectors import enumerate_sectors
    n, q_max = max(top - 1, 1), top - 1
    sectors = enumerate_sectors(n, q_max)
    assert {idx.dim for idx in sectors} == set(range(1, top + 1))
    rng = np.random.default_rng(top)
    for _ in range(20):
        blocks = {idx: haar(idx.dim, rng) for idx in sectors}
        got = np.angle(np.linalg.det(rz.BlockTarget(n, q_max, blocks)._stack))
        want = np.array([np.angle(np.linalg.det(blocks[idx])) for idx in sectors])
        if top <= 6:
            # with the identity first, the LU of a slice repeats the block's
            # own: bit for bit at n ≤ 5, the sizes on which
            # test_batched_block_check_matches_per_sector_reference compares
            # whole verdicts
            assert got.tobytes() == want.tobytes()
        else:
            # from d = 6 on, a BLAS kernel may round a block's products
            # differently once an identity column precedes it (OpenBLAS does
            # for d = top - 1)
            assert np.abs(got - want).max() <= 4 * np.spacing(np.pi)


@pytest.mark.parametrize("dtype", [float, int])
def test_real_blocks_with_negative_determinant_match_reference(dtype):
    # real blocks enter the complex stack, where det −1 must still read as
    # phase π, as the per-block reference's real det does, never as −π
    from tcforge.sectors import enumerate_sectors
    verdicts = set()
    for n, q_max in ((2, 2), (3, 5), (4, 6)):
        eye = {idx: np.eye(idx.dim, dtype=dtype) for idx in enumerate_sectors(n, q_max)}
        targets = [{idx: -b for idx, b in eye.items()}]  # realizable, α = π
        for idx in eye:
            flips = (np.diag([-1] + [1] * (idx.dim - 1)), np.eye(idx.dim)[::-1])
            targets += [{**eye, idx: f.astype(dtype)} for f in flips]
        for blocks in targets:
            t = rz.BlockTarget(n, q_max, blocks)
            assert np.array_equal(np.angle(np.linalg.det(t._stack)),
                                  [np.angle(np.linalg.det(blocks[idx])) for idx in eye])
            got = rz.check_block_target(t).to_json_dict()
            assert got == _ref_check_block_target(t).to_json_dict()
            verdicts.add((got["violation"] or {}).get("constraint"))
    assert verdicts == {None, rz.PARTNER_EQUALITY, rz.DETERMINANT_PHASE}


@pytest.mark.parametrize("check", [
    lambda tol: rz.check_pi_u1(rz.cz_controlled_target(3), tol),
    lambda tol: rz.check_diagonal(2, {-2: 0.0, 0: 0.0, 2: 0.0}, tol),
    lambda tol: rz.check_block_target(
        rz.BlockTarget(2, 2, _identity_blocks_with(np.eye(2))), tol),
    lambda tol: rz.check_symmetric_phase_constraint(2, 2, [0.0] * 3, tol),
    lambda tol: rz.state_convertible(2, {(2, 0): 1.0}, {(2, 0): 1.0}, tol),
    lambda tol: la.lie_closure([1j * jx_operator(2), 1j * np.diag([1.0, 0, -1])], tol),
    lambda tol: la.sector_rank_check(SectorIndex(2, 0, 2), tol),  # d = 1
    lambda tol: la.verify_pi_universality(2, tol),
], ids=["pi_u1", "diagonal", "block", "symmetric", "convertible",
        "lie_closure", "sector_rank", "pi_universality"])
@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8, True, "1e-8", None])
def test_tolerance_must_be_finite_and_positive(check, tol):
    # a NaN tolerance once let lie_closure keep every candidate: spin-1
    # iJx, iJz read rank 8 (all of su(3)) instead of 3
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        check(tol)


def test_non_finite_phases_rejected():
    phases = {lvl: 0.0 for lvl in all_levels(3)}
    phases[(1, -1)] = np.nan
    with pytest.raises(ValueError, match="finite"):
        rz.PiU1Target(3, phases)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            rz.check_symmetric_phase_constraint(2, 2, [0.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            rz.check_diagonal(2, {-2: 0.0, 0: bad, 2: 0.0})


def test_state_convertible_rejects_non_finite_amplitudes():
    phi = {(-2, 2): 1.0}
    for bad in (np.nan, np.inf, complex(1, np.nan), "1"):
        with pytest.raises(ValueError, match="non-finite"):
            rz.state_convertible(2, {(2, 0): bad}, phi)
        with pytest.raises(ValueError, match="non-finite"):
            rz.state_convertible(2, phi, {(2, 0): bad})


# Reference: the scalar affine fit that check_pi_u1 and check_diagonal used
# before they shared the determinant-phase solver.

def _ref_fit_affine(coeffs, values, tol):
    """Solve values_i ≡ alpha + coeffs_i * beta (mod 2π) with
    β ∈ [-2π, 2π).  Returns (alpha, beta, residual) or (None, None, worst)."""
    order = np.argsort(coeffs)
    c = np.asarray(coeffs, dtype=float)[order]
    v = rz.wrap_pi(np.asarray(values, dtype=float)[order])
    if len(c) == 1:
        return float(rz.wrap_pi(v[0])), 0.0, 0.0
    dc = c[1] - c[0]
    base = (v[1] - v[0]) / dc
    betas = [base + 2 * np.pi * w / dc for w in range(-2, 3)]
    betas = sorted((b for b in betas if -2 * np.pi <= b < 2 * np.pi), key=abs)
    worst = np.inf
    for beta in betas:
        alpha = float(rz.wrap_pi(v[0] - c[0] * beta))
        resid = float(np.abs(rz.wrap_pi(v - alpha - c * beta)).max())
        worst = min(worst, resid)
        if resid <= tol:
            return alpha, float(beta), resid
    return None, None, worst


def _affine_inputs(c, rng):
    """Lowest-weight phase rows for coefficients c: exactly affine with random
    2π windings, quarter turns, generic, and β at the ±2π window edge."""
    for _ in range(40):
        alpha, beta = rng.uniform(-np.pi, np.pi), rng.uniform(-2 * np.pi, 2 * np.pi)
        yield alpha + c * beta + 2 * np.pi * rng.integers(-3, 4, len(c))
        yield np.pi / 2 * rng.integers(-8, 9, len(c))
        yield rng.uniform(-np.pi, np.pi, len(c))
    for beta in (-2 * np.pi, 2 * np.pi, np.nextafter(-2 * np.pi, 0),
                 np.nextafter(2 * np.pi, 0)):
        yield 0.3 + c * beta


@pytest.mark.parametrize("check", ["pi_u1", "diagonal"])
def test_affine_checks_match_scalar_reference(check):
    rng = np.random.default_rng(606)
    seen = set()
    for n in range(1, 10):
        if check == "pi_u1":
            keys = [(jj, -jj) for jj in range(j_min2(n), n + 1, 2)]
            coeffs = [jj / 2 for jj, _ in keys]
            levels = [list(k) for k in keys]
            free = all_levels(n)
        else:
            keys = list(range(-n, 1, 2))
            coeffs = [mm / 2 for mm in keys]
            levels = [[mm] for mm in keys]
            free = list(range(-n, n + 1, 2))
        for values in _affine_inputs(np.array(coeffs), rng):
            phases = {k: float(rng.uniform(-np.pi, np.pi)) for k in free}
            phases.update(zip(keys, values.tolist()))
            got = (rz.check_pi_u1(rz.PiU1Target(n, phases)) if check == "pi_u1"
                   else rz.check_diagonal(n, phases))
            alpha, beta, resid = _ref_fit_affine(coeffs, values, 1e-8)
            assert got.realizable == (alpha is not None)
            assert abs(got.max_residual - resid) <= 1e-12
            if alpha is None:
                assert got.alpha is None and got.beta is None
                assert got.violation["constraint"] == rz.AFFINE_LOWEST_WEIGHT
                assert got.violation["levels"] == levels
                assert abs(got.violation["residual"] - resid) <= 1e-12
            else:
                assert got.violation is None
                assert abs(float(rz.wrap_pi(got.alpha - alpha))) <= 1e-12
                assert abs(got.beta - beta) <= 1e-12
            seen.add((n % 2, len(coeffs) == 1, got.realizable))
    assert {(0, False, True), (1, False, True), (1, True, True),
            (0, False, False), (1, False, False)} <= seen


def test_affine_fit_prefers_smallest_beta():
    # on even n every j is an integer, so β and β - 2π both fit
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 8):
        v = rz.check_pi_u1(affine_target(n, 0.4, 1.5 * np.pi, rng))
        assert v.realizable and abs(v.beta + 0.5 * np.pi) < 1e-12


def test_unwrapped_phases_accepted():
    rng = np.random.default_rng(12)
    n, q_max = 3, 7
    bu = dyn.apply_circuit(Circuit(n, [Gate("tc", 0.4), Gate("rz", 1.1),
                                       Gate("tc", -0.8)]), q_max, backend="charge")
    symmetric = [[0.0] * (q_max + 1),
                 [float(np.angle(np.linalg.det(bu.blocks[SectorIndex(n, q, n)])))
                  for q in range(q_max + 1)]]
    pi_u1 = affine_target(5, 0.7, -1.9, rng)
    diagonal = {mm: 0.2 - 1.3 * mm / 2 for mm in range(-4, 5, 2)}
    for k in range(-10, 11):
        for shift in (k, rng.integers(-10, 11, q_max + 1)):
            for theta_q in symmetric:
                shifted = list(np.asarray(theta_q) + 2 * np.pi * shift)
                assert rz.check_symmetric_phase_constraint(n, q_max, shifted).realizable
        phases = {lvl: ph + 2 * np.pi * k for lvl, ph in pi_u1.phases.items()}
        assert rz.check_pi_u1(rz.PiU1Target(5, phases)).realizable
        phases = {mm: ph + 2 * np.pi * k for mm, ph in diagonal.items()}
        assert rz.check_diagonal(4, phases).realizable


def _identity_blocks_with(block):
    """n = 2, q_max = 2 identity blocks, with block in sector (q=1, j=1)."""
    from tcforge.sectors import enumerate_sectors
    blocks = {idx: np.eye(idx.dim, dtype=complex)
              for idx in enumerate_sectors(2, 2)}
    blocks[SectorIndex(2, 1, 2)] = block
    return blocks


def test_block_target_rejects_bool_blocks():
    # bools are not numbers here, as in sectors.require_finite
    with pytest.raises(ValueError, match=r"^block for SectorIndex\(n=2, q=1, j=1\) "
                                         r"is not a numeric array$"):
        rz.BlockTarget(2, 2, _identity_blocks_with(np.eye(2, dtype=bool)))


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: rz.BlockTarget(2, 2, _identity_blocks_with([[1, 0], [0, 1]])),
                 r"^block for SectorIndex\(n=2, q=1, j=1\) is not a numeric array$",
                 id="nested-list-block"),
    pytest.param(lambda: rz.BlockTarget(2, 2, _identity_blocks_with(np.array([["1", "0"], ["0", "1"]]))),
                 r"^block for SectorIndex\(n=2, q=1, j=1\) is not a numeric array$",
                 id="string-block"),
    pytest.param(lambda: rz.BlockTarget(1.5, 2, {}), r"^n must be an integer, got 1\.5$",
                 id="float-n"),
    pytest.param(lambda: rz.BlockTarget(2, 2.0, {}), r"^q_max must be an integer, got 2\.0$",
                 id="float-q_max"),
    pytest.param(lambda: rz.check_symmetric_phase_constraint(2, -1, []),
                 r"^q_max must be an integer ≥ 0, got -1$", id="symmetric-negative-q_max"),
    pytest.param(lambda: rz.PiU1Target(0, {(0, 0): 0.0}),
                 r"^n must be an integer ≥ 1, got 0$", id="pi_u1-zero-n"),
    pytest.param(lambda: rz.check_diagonal(0, {0: 0.0}),
                 r"^n must be an integer ≥ 1, got 0$", id="diagonal-zero-n"),
    pytest.param(lambda: rz.check_diagonal(True, {-1: 0.0, 1: 0.0}),
                 r"^n must be an integer ≥ 1, got True$", id="diagonal-bool-n"),
    pytest.param(lambda: rz.check_diagonal(2, {-2: 0.0, 2: 0.0}),
                 r"^need one phase per 2m in \{-n\.\.n\}$", id="diagonal-missing-key"),
    pytest.param(lambda: rz.check_symmetric_phase_constraint(2, 2, [0.0, 0.0]),
                 r"^need θ_q for q = 0\.\.2$", id="symmetric-short-theta"),
    pytest.param(lambda: rz.state_convertible(2, {(1, 0): 1.0}, {(2, 0): 1.0}),
                 r"^bad symmetric-state label \(2m=1, k=0\)$", id="state-odd-label"),
    pytest.param(lambda: rz.state_convertible(2, {(2, 0): 1.0}, {(4, 0): 1.0}),
                 r"^bad symmetric-state label \(2m=4, k=0\)$", id="state-label-above-n"),
    pytest.param(lambda: rz.constraint_gap(-3), r"^n must be an integer ≥ 1, got -3$",
                 id="gap-negative-n"),
    pytest.param(lambda: rz.constraint_gap(True), r"^n must be an integer ≥ 1, got True$",
                 id="gap-bool-n"),
    pytest.param(lambda: rz.constraint_gap(4.0), r"^n must be an integer ≥ 1, got 4\.0$",
                 id="gap-float-n"),
    pytest.param(lambda: rz.block_target_from_unitary(dyn.apply_circuit(
                     Circuit(2, [Gate("tc", 1.0)]), 2, backend="jtower")),
                 r"^need a charge-backend block unitary$", id="jtower-unitary"),
])
def test_ill_typed_targets_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()

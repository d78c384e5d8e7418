import warnings
from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcforge import synthesis as syn
from tcforge.dynamics import (Circuit, Gate, apply_circuit, distance_up_to_phase,
                              evolve_vacuum_state, interaction_time, simplify,
                              vacuum_sandwich)
from tcforge.qubits import (CZ, ISWAP, SIGMA_X, SIGMA_Y, SIGMA_Z, SQRT_ISWAP, SWAP,
                            u_psi_plus, uzz)
from tcforge.sectors import SectorIndex

DELTA = syn.DELTA


def rand_su2(rng):
    a = rng.normal(size=4)
    a /= np.linalg.norm(a)
    return (a[0] * np.eye(2)
            + 1j * (a[1] * SIGMA_X + a[2] * SIGMA_Y + a[3] * SIGMA_Z))


def rand_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- rotations

def compose(g1, g2, m, n):
    """Axis and angle of exp(iγ1 m̂·σ)·exp(iγ2 n̂·σ)."""
    return syn.su2_axis_angle(syn.aa_matrix(g1, m) @ syn.aa_matrix(g2, n))


def test_compose_rotations_examples():
    x = np.array([1.0, 0, 0])
    aa = compose(np.pi / 2, np.pi / 2, x, x)
    assert abs(aa.angle - np.pi) < 1e-12  # squared quarter turn is -1
    aa = compose(1.1, 0.0, x, np.array([0, 1.0, 0]))
    assert abs(aa.angle - 1.1) < 1e-12
    assert np.allclose(aa.axis, x)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 10**6),
       st.integers(0, 10**6))
def test_compose_rotations_matches_matrices(g1, g2, s1, s2):
    m = rand_axis(np.random.default_rng(s1))
    n = rand_axis(np.random.default_rng(s2 + 7))
    aa = compose(g1, g2, m, n)
    lhs = syn.aa_matrix(g1, m) @ syn.aa_matrix(g2, n)
    if aa.axis is None:
        rhs = np.cos(aa.angle) * np.eye(2)
    else:
        rhs = syn.aa_matrix(aa.angle, aa.axis)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_compose_cos_bound_sweep():
    # the reachable cos(angle) interval is exactly c1c2 ∓ |s1 s2|
    g1, g2 = 0.8, 1.9
    c1c2 = np.cos(g1) * np.cos(g2)
    s1s2 = abs(np.sin(g1) * np.sin(g2))
    x = np.array([1.0, 0, 0])
    for dot, want in ((1.0, c1c2 - s1s2), (-1.0, c1c2 + s1s2)):
        other = dot * x
        aa = compose(g1, g2, x, other)
        assert abs(np.cos(aa.angle) - want) < 1e-12


# ----------------------------------------------------------------- two-step

def test_two_step_boundary_aligned():
    gamma = DELTA
    target = syn.AxisAngle(np.array([0, 0, 1.0]),
                           float(np.arccos(np.cos(2 * gamma))))
    fam = syn.solve_two_step(target, gamma)
    n1, n2 = (v[0] for v in fam.axes(np.array([0.3])))
    assert abs(n1 @ n2 - 1.0) < 1e-9  # aligned axes at the boundary


def test_two_step_infeasible():
    target = syn.AxisAngle(np.array([0, 0, 1.0]), np.pi)
    assert syn.solve_two_step(target, DELTA) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.floats(0, 2 * np.pi))
def test_two_step_recomposition(seed, theta):
    rng = np.random.default_rng(seed)
    for k in (1, 2):
        alpha = rng.uniform(0, np.pi)
        if np.cos(alpha) < np.cos(2 * k * DELTA):
            continue
        mu = rand_axis(rng)
        fam = syn.solve_two_step(syn.AxisAngle(mu, alpha), k * DELTA)
        n1, n2 = (v[0] for v in fam.axes(np.array([theta])))
        got = syn.aa_matrix(k * DELTA, n2) @ syn.aa_matrix(k * DELTA, n1)
        assert np.abs(got - syn.aa_matrix(alpha, mu)).max() < 1e-9


def test_two_step_family_broadcasts_over_axes():
    rng = np.random.default_rng(5)
    mus = np.stack([rand_axis(rng) for _ in range(4)])
    thetas = np.linspace(0, 2 * np.pi, 7)
    n1s, n2s = syn.TwoStepFamily(mus, 0.4, DELTA).axes(thetas)
    assert n1s.shape == (4, 7, 3)
    for mu, b1, b2 in zip(mus, n1s, n2s):
        n1, n2 = syn.TwoStepFamily(mu, 0.4, DELTA).axes(thetas)
        assert np.abs(b1 - n1).max() < 1e-15 and np.abs(b2 - n2).max() < 1e-15
    assert np.abs(np.linalg.norm(n1s, axis=-1) - 1).max() < 1e-15


def reference_axes(mu, alpha, gamma, theta):
    """One row of TwoStepFamily.axes built point by point: ê and f̂ in the
    plane of μ̂ and g = cos θ ĝ0 + sin θ ĝ1, ŵ = f̂ × ê, n̂1,2 ∝ u ê ± w ŵ;
    an identity target (sin α = 0) gives the antipodal pair ±g."""
    c, s = np.cos(gamma), np.sin(gamma)
    d = np.clip((c * c - np.cos(alpha)) / (s * s), -1.0, 1.0)
    u = min(abs(np.sin(alpha / 2) / s), 1.0)
    w = np.sqrt((1 - d) / 2)
    a, b = 2 * s * c * u, 2 * s * s * u * w
    g0 = syn._perp(mu)
    g = np.cos(theta)[:, None] * g0 + np.sin(theta)[:, None] * np.cross(mu, g0)
    if abs(np.sin(alpha)) < 1e-12:
        return g, -g
    e_hat = (a * mu - b * g) / np.sin(alpha)
    f_hat = (-b * mu - a * g) / np.sin(alpha)
    w_hat = np.cross(f_hat, e_hat)
    return tuple(n / np.linalg.norm(n, axis=-1, keepdims=True)
                 for n in (u * e_hat + w * w_hat, u * e_hat - w * w_hat))


def test_two_step_family_circles_match_point_reference():
    rng = np.random.default_rng(29)
    rows = []  # (mu, alpha, gamma)
    for k in (1, 2):
        gamma = k * DELTA
        top = np.arccos(np.cos(2 * gamma))  # the 2-step boundary
        rows += [(rand_axis(rng), a, gamma)
                 for a in list(rng.uniform(0, top, 6)) + [1e-8, 1e-11, top, 0.0]]
    mus, alphas, gammas = (np.array(x) for x in zip(*rows))
    fam = syn.TwoStepFamily(mus, alphas, gammas)
    thetas = np.linspace(0, 2 * np.pi, 33)
    n1s, n2s = fam.axes(thetas)
    for mu, alpha, gamma, n1, n2 in zip(mus, alphas, gammas, n1s, n2s):
        # an identity row is the parent's ±g a quarter turn later
        shift = np.pi / 2 if alpha == 0 else 0.0
        r1, r2 = reference_axes(mu, alpha, gamma, thetas + shift)
        assert np.abs(n1 - r1).max() < 1e-14, alpha
        assert np.abs(n2 - r2).max() < 1e-14, alpha
    # the public circles: n̂ = A + B cos θ + C sin θ, one B and C per axis
    for i, n in enumerate((n1s, n2s)):
        want = (fam.A[:, None] + np.cos(thetas)[:, None] * fam.B[:, None, i]
                + np.sin(thetas)[:, None] * fam.C[:, None, i])
        assert np.abs(n - want).max() < 1e-15
        assert np.abs(np.linalg.norm(n, axis=-1) - 1).max() < 1e-15


# -------------------------------------------------------------------- euler

def test_euler_embed_examples():
    branches = syn.euler_embed(np.array([1.0, 0, 0]))
    assert any(abs(t1) < 1e-12 and abs(t2) < 1e-12 for t1, t2 in branches)
    branches = syn.euler_embed(np.array([0, -1.0, 0]))
    assert any(abs(t1 - np.pi / 2) < 1e-12 and abs(t2) < 1e-12
               for t1, t2 in branches)
    for t1, t2 in branches:
        assert -2 * np.pi <= t1 <= 2 * np.pi
        assert -np.pi / np.sqrt(2) <= t2 <= np.pi / np.sqrt(2)


def _axis_from_angles(theta1, theta2):
    """The axis whose Euler branches include (θ1, θ2): euler_embed's inverse."""
    two_beta = 2 * np.sqrt(2) * theta2
    return np.array([np.cos(theta1),
                     -np.sin(theta1) * np.cos(two_beta),
                     np.sin(theta1) * np.sin(two_beta)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_euler_branches_reproduce_axis(seed):
    axis = rand_axis(np.random.default_rng(seed))
    for t1, t2 in syn.euler_embed(axis):
        got = _axis_from_angles(t1, t2)
        assert np.abs(got - axis).max() < 1e-9


# ±x̂, ±ŷ, ±ẑ: axes whose Euler branches tie exactly in the chain cost
TIE_AXES = np.concatenate([np.eye(3), -np.eye(3)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.just(3))
def test_best_over_branches_matches_brute_force(seed, s):
    rng = np.random.default_rng(seed)
    axes = [np.stack([TIE_AXES[rng.integers(6)] if rng.random() < 0.5
                      else rand_axis(rng) for _ in range(5)]) for _ in range(s)]
    cost, t1, t2 = syn._best_over_branches(axes)
    for g in range(5):
        options = [syn.euler_embed(a[g]) for a in axes]
        # product varies its first index slowest: the last factor's branch,
        # so the combos run in (tₛ, …, t₁) order
        chains = [[options[i][b][1] for i, b in enumerate(combo[::-1])]
                  for combo in product(range(4), repeat=s)]
        costs = []
        for c in chains:  # summed left to right: |t₁|, then each step, then |tₛ|
            total = abs(c[0])
            for i in range(s - 1):
                total += abs(c[i + 1] - c[i])
            costs.append(total + abs(c[-1]))
        first = costs.index(min(costs))  # ties go to the first least combo
        assert abs(cost[g] - costs[first]) < 1e-12
        assert list(t2[g]) == chains[first]
        assert all(tuple(p) in options[i] for i, p in enumerate(zip(t1[g], t2[g])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_best_over_branches_mirror_invariant(seed):
    # the σz mirror (x, y, z) → (-x, -y, z) sends β to π/2 - β, which negates
    # each factor's branch set, so the chain cost is unchanged
    rng = np.random.default_rng(seed)
    axes = [np.stack([rand_axis(rng) for _ in range(50)]) for _ in range(3)]
    mirror = np.array([-1.0, -1.0, 1.0])
    cost = syn._best_over_branches(axes)[0]
    assert np.abs(syn._best_over_branches([a * mirror for a in axes])[0]
                  - cost).max() < 1e-14


# ---------------------------------------------------- exact family minimum

def trig_laurent(coeffs):
    """Laurent coefficients (z^-d … z^d) of a0 + Σ_k a_k cos kθ + b_k sin kθ,
    coeffs = [a0, (a1, b1), …]."""
    d = len(coeffs) - 1
    out = np.zeros(2 * d + 1, dtype=complex)
    out[d] = coeffs[0]
    for k, (a, b) in enumerate(coeffs[1:], start=1):
        out[d + k], out[d - k] = (a - 1j * b) / 2, (a + 1j * b) / 2
    return out


def sign_changes(coeffs):
    theta = np.linspace(0, 2 * np.pi, 20001)
    val = coeffs[0] + sum(a * np.cos(k * theta) + b * np.sin(k * theta)
                          for k, (a, b) in enumerate(coeffs[1:], start=1))
    return theta[1:][np.sign(val[1:]) != np.sign(val[:-1])]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_root_angles_cover_every_sign_change(seed, drop):
    # degree-2 and degree-3 polynomials whose top `drop` harmonics vanish,
    # as y₁z₂ - y₂z₁'s top one does on every compiler row, and degree-1 ones
    rng = np.random.default_rng(seed)
    polys = []
    for d in (1, 2, 3):
        c = [rng.normal()] + [tuple(rng.normal(size=2)) for _ in range(d)]
        if d > 1:
            c = c[:len(c) - min(drop, d)] + [(0.0, 0.0)] * min(drop, d)
        polys.append(c)
    found = [syn._linear_roots(trig_laurent(polys[0])[None, None])[0]]
    for c in polys[1:]:
        found.append(syn._companion_roots(trig_laurent(c)[None])[0])
    for c, got in zip(polys, found):
        got = np.mod(got[np.isfinite(got)], 2 * np.pi)
        for t in sign_changes(c):
            gap = np.abs(np.angle(np.exp(1j * (got - t))))
            assert gap.min() < 1e-3, (c, t, got)


def test_root_angles_of_zero_and_nan_polynomials():
    # an identically zero polynomial has no roots to add: linear ones give
    # NaN, companion ones the 2d-th roots of unity; NaN rows raise nothing
    assert np.isnan(syn._linear_roots(np.zeros((1, 1, 3), dtype=complex))).all()
    for q in (np.zeros(5), np.full(7, np.nan)):
        got = syn._companion_roots(q.astype(complex)[None])[0]
        assert np.isfinite(got).all() and len(got) == len(q) - 1


BOUNDARY = (1.4884739462014362, 2.4012876269253036, -2.439352522382718)


def test_family_min_is_grid_safe_on_degenerate_rows(monkeypatch):
    # the padding axis +x (2-step rows) and identity rows (a 1-step target's
    # 3-step remainder, and an exact α = 0 row) give identically zero
    # polynomials, and y₁z₂ - y₂z₁, the x part of n̂1 × n̂2, which turns
    # with g, is of degree 1 on every row (SWAP's -I rows have μ̂ = -ŷ, its
    # 2-step row (0.19, -0.98, 0)).  No row may fail or warn, and none may
    # end above the best of a 4097-point θ grid
    family_min, seen = syn._family_min, []

    def spy(fam, ends):
        seen.append((fam, ends))
        return family_min(fam, ends)

    monkeypatch.setattr(syn, "_family_min", spy)
    rng = np.random.default_rng(31)
    targets = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex),
               syn.aa_matrix(DELTA, rand_axis(rng)),
               syn.aa_matrix(1.5, rand_axis(rng)),
               syn.aa_matrix(2.9, rand_axis(rng))] + [rand_su2(rng) for _ in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        syn._decompose_all(targets)
        spy(syn.TwoStepFamily(np.array([[0, 0.6, 0.8]]), 0.0, DELTA),
            syn._PAD_AXIS[None, None])
        for phis in ((-np.pi, -np.pi, -np.pi), BOUNDARY):
            assert syn.compile_two_qubit(*phis).residual < 1e-8
    grid = np.linspace(0, 2 * np.pi, 4097)
    pads = identities = 0
    for fam, ends in seen:
        pads += int((ends[:, 0] == syn._PAD_AXIS).all(axis=1).sum())
        identities += int((np.asarray(fam.alpha) < 1e-12).sum())
        cost = family_min(fam, ends)[0]
        assert np.isfinite(cost).all()
        assert (cost <= syn._chain_cost(fam, ends, grid)[0].min(axis=1) + 1e-12).all()
    assert pads and identities


def test_family_min_rejects_rows_without_finite_cost():
    fam = syn.TwoStepFamily(np.array([[np.nan, 0, 1.0]]), 0.3, DELTA)
    with pytest.raises(AssertionError, match="no finite chain cost"):
        syn._family_min(fam, syn._PAD_AXIS[None, None])


def degenerate_and_random_targets(rng, count):
    """The identity, -I, a 1-step target, targets with no 2-step (or no 2-
    and no 4-step) family, then ``count`` Haar-random SU(2) targets."""
    return [np.eye(2, dtype=complex), -np.eye(2, dtype=complex),
            syn.aa_matrix(DELTA, rand_axis(rng)),
            syn.aa_matrix(1.5, rand_axis(rng)),
            syn.aa_matrix(2.9, rand_axis(rng))] + [rand_su2(rng) for _ in range(count)]


def family_rows(monkeypatch, targets):
    """Every (family, ends) that _decompose_all searches for the targets,
    with a padded exact α = 0 row appended."""
    family_min, seen = syn._family_min, []
    monkeypatch.setattr(syn, "_family_min",
                        lambda fam, ends: seen.append((fam, ends)) or family_min(fam, ends))
    syn._decompose_all(targets)
    return seen + [(syn.TwoStepFamily(np.array([[0, 0.6, 0.8]]), 0.0, DELTA),
                    syn._PAD_AXIS[None, None])]


def test_neighbour_kink_has_degree_one(monkeypatch):
    # y₁z₂ - y₂z₁ = (n̂1 × n̂2)_x is a product of two degree-1 circles, so
    # eight samples give its harmonics up to 3 exactly; _critical_thetas
    # solves it in closed form, which holds only while its z^±2 ones vanish
    rows = family_rows(monkeypatch, degenerate_and_random_targets(
        np.random.default_rng(71), 40))
    grid = np.arange(8) * (2 * np.pi / 8)
    for fam, _ in rows:
        n1, n2 = fam.axes(grid)
        c = np.abs(np.fft.fft(n1[..., 1] * n2[..., 2] - n1[..., 2] * n2[..., 1]))
        assert (c[:, [2, 6]] <= 1e-13 * c.max(axis=1, keepdims=True)).all()


def test_family_min_matches_the_quartic_kink_search(monkeypatch):
    # the closed-form kink roots plus θ = 0, π lose nothing against also
    # taking every root of the kink as a quartic through _companion_roots,
    # the deflation that once added 0 and π included
    rows = family_rows(monkeypatch, degenerate_and_random_targets(
        np.random.default_rng(73), 40))
    grid = np.arange(8) * (2 * np.pi / 8)
    for fam, ends in rows:
        n1, n2 = fam.axes(grid)
        kink = np.fft.fft(n1[..., 1] * n2[..., 2] - n1[..., 2] * n2[..., 1]) / 8
        quartic = kink[:, [6, 7, 0, 1, 2]]  # Laurent z⁻², …, z²
        thetas = np.concatenate([syn._critical_thetas(fam, ends),
                                 syn._companion_roots(quartic)], axis=1)
        ref = syn._chain_cost(fam, ends, np.mod(thetas, 2 * np.pi))[0]
        ref = np.where(np.isfinite(ref), ref, np.inf).min(axis=1)
        assert (syn._family_min(fam, ends)[0] <= ref + syn.TAU_TIE).all()


@pytest.mark.parametrize("bad", ["turned", "nan"])
def test_stacked_check_catches_any_bad_row(monkeypatch, bad):
    # one stacked product checks every chain, the padded 2-step ones too:
    # n̂1 of any one row turned by 1e-6, or NaN, must raise
    targets = degenerate_and_random_targets(np.random.default_rng(79), 3)
    (fam, ends), _ = family_rows(monkeypatch, targets)
    monkeypatch.undo()
    assert (ends[:, 0] == syn._PAD_AXIS).all(axis=1).any()
    family_min = syn._family_min
    for r in range(len(ends)):
        def spoiled(fam, ends, r=r):
            cost, t1, t2, n1, n2 = family_min(fam, ends)
            n1 = n1.copy()
            n1[r] = (np.nan if bad == "nan" else
                     np.cos(1e-6) * n1[r] + np.sin(1e-6) * syn._perp(n1[r]))
            return cost, t1, t2, n1, n2

        monkeypatch.setattr(syn, "_family_min", spoiled)
        with pytest.raises(AssertionError, match="recomposition defect"):
            syn._decompose_all(targets)


def test_gadget_realizes_fixed_rotation():
    # charge-1 block rotates by the fixed angle; charges 0 and 2 untouched
    rng = np.random.default_rng(11)
    for k in (1, 2):
        axis = rand_axis(rng)
        t1, t2 = syn.euler_embed(axis)[0]
        from tcforge.dynamics import Circuit, Gate
        circ = Circuit(2, [Gate("tc", t2), Gate("rz", t1),
                           Gate("tc", k * syn.CORE_R), Gate("rz", -t1),
                           Gate("tc", -t2)])
        bu = apply_circuit(circ, 2)
        assert np.abs(bu.blocks[SectorIndex(2, 0, 2)] - 1).max() < 1e-12
        assert np.abs(bu.blocks[SectorIndex(2, 2, 2)] - np.eye(3)).max() < 1e-11
        want = syn.aa_matrix(-k * DELTA, axis)
        assert np.abs(bu.blocks[SectorIndex(2, 1, 2)] - want).max() < 1e-10


# ------------------------------------------------------------------- a-gate

def test_decompose_kind_selection():
    assert syn.decompose_fixed_angle(np.eye(2, dtype=complex)).kind == "0-step"
    # small rotation angle: two steps suffice
    u = syn.aa_matrix(0.2, np.array([0, 1.0, 0]))
    assert syn.decompose_fixed_angle(u).kind == "2-step"
    # the fixed rotation itself: a single pulse
    u = syn.aa_matrix(DELTA, np.array([0, 0, 1.0]))
    dec = syn.decompose_fixed_angle(u)
    assert dec.kind == "1-step"
    assert abs(dec.tau - 0.585) < 0.01


def test_decompose_near_identity_rotation():
    # below α ≈ 1.5e-8, cos α rounds to 1; the pair axes once came out 0/0
    u = syn.aa_matrix(1e-9, np.array([0, 0.6, 0.8]))
    dec = syn.decompose_fixed_angle(u)
    assert dec.kind == "2-step"
    acc = np.eye(2, dtype=complex)
    for k, axis in dec.steps:
        acc = syn.aa_matrix(k * DELTA, axis) @ acc
    assert np.abs(acc - u).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_a_gate_block_contract(seed):
    u = rand_su2(np.random.default_rng(seed))
    circ = syn.a_gate(u)
    bu = apply_circuit(circ, 2)
    assert np.abs(bu.blocks[SectorIndex(2, 1, 2)] - u).max() < 1e-8
    assert np.abs(bu.blocks[SectorIndex(2, 0, 2)] - 1).max() < 1e-8
    assert np.abs(bu.blocks[SectorIndex(2, 2, 2)] - np.eye(3)).max() < 1e-8
    # singlet tower untouched
    assert np.abs(bu.blocks[SectorIndex(2, 1, 0)] - 1).max() < 1e-12
    assert np.abs(bu.blocks[SectorIndex(2, 2, 0)] - 1).max() < 1e-12


def test_axes_must_be_finite():
    # both once returned NaN angles
    for bad in (np.nan, np.inf):
        axis = np.array([0.0, bad, 1.0])
        with pytest.raises(ValueError, match="^axis must be finite"):
            syn.euler_embed(axis)
        with pytest.raises(ValueError, match="^target axis must be finite"):
            syn.solve_two_step(syn.AxisAngle(axis, 1.0), DELTA)
    for step in (0.0, np.pi, -2 * np.pi):
        with pytest.raises(ValueError, match="^step angle must not be a multiple of π$"):
            syn.solve_two_step(syn.AxisAngle(np.array([0, 0, 1.0]), 1.0), step)
    # a NaN angle once read as "infeasible", a complex axis lost its imaginary part
    with pytest.raises(ValueError, match="^step_angle must be a finite real number"):
        syn.solve_two_step(syn.AxisAngle(np.array([0, 0, 1.0]), 1.0), np.nan)
    with pytest.raises(ValueError, match="^target angle must be a finite real number"):
        syn.solve_two_step(syn.AxisAngle(np.array([0, 0, 1.0]), np.nan), DELTA)
    with pytest.raises(ValueError, match="^axis must be finite$"):
        syn.euler_embed(np.array([1, 1j, 0]))


def test_a_gate_rejects_bad_targets():
    for build in (syn.a_gate, syn.decompose_fixed_angle):
        with pytest.raises(ValueError):
            build(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            build(np.diag([1j, 1j]))  # unitary but det = -1
        with pytest.raises(ValueError):
            build(np.full((2, 2), np.nan))


def test_a_gate_identity_empty():
    assert syn.a_gate(np.eye(2, dtype=complex)).gates == ()


def test_published_a_gate_times():
    # regression against the reference parameter sets: never slower
    f1d = syn._pi11(syn.f_gate_dagger())
    cases = [
        (f1d, 0.833),
        (np.array([[0, -1], [1, 0]], dtype=complex) @ f1d.conj().T, 0.829),
        (-np.eye(2, dtype=complex), 1.273),
    ]
    for target, published in cases:
        dec = syn.decompose_fixed_angle(target)
        assert dec.tau <= published + 1e-3
    assert syn.decompose_fixed_angle(-np.eye(2, dtype=complex)).kind == "3-step"


def test_batched_decomposition_matches_single_targets():
    rng = np.random.default_rng(31)
    targets = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex),
               syn.aa_matrix(DELTA, rand_axis(rng)),  # a 1-step target
               syn.aa_matrix(1.5, rand_axis(rng)),  # no 2-step family
               syn.aa_matrix(2.9, rand_axis(rng)),  # no 2- or 4-step family
               ] + [rand_su2(rng) for _ in range(5)]
    batch = syn._decompose_all(targets)
    kinds = [d.kind for d in batch]
    assert kinds[:5] == ["0-step", "3-step", "1-step", "4-step", "3-step"]
    for target, got in zip(targets, batch):
        want = syn.decompose_fixed_angle(target)
        assert (got.kind, got.tau, got.eulers) == (want.kind, want.tau, want.eulers)
        assert len(got.steps) == len(want.steps)
        for (k1, a1), (k2, a2) in zip(got.steps, want.steps):
            assert k1 == k2 and np.array_equal(a1, a2)


def test_worst_case_a_gate_time():
    rng = np.random.default_rng(23)
    for _ in range(25):
        dec = syn.decompose_fixed_angle(rand_su2(rng))
        assert dec.tau <= 4 / np.sqrt(6) + 3 / (2 * np.sqrt(2)) + 1e-9


# ------------------------------------------------------------------- f-gate

def test_f_gate_charge2_block_exact():
    bu = apply_circuit(syn.f_gate(), 2)
    want = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert np.abs(bu.blocks[SectorIndex(2, 2, 2)] - want).max() < 1e-9
    assert abs(bu.blocks[SectorIndex(2, 0, 2)][0, 0] - 1) < 1e-12
    assert syn.f_gate().total_tc_time() == 3 * (np.pi / np.sqrt(6))


def test_f_gate_charge1_relic_closed_form():
    f1 = syn._pi11(syn.f_gate())
    phi1, phi0 = syn.F_PHI1, syn.F_PHI0
    diag = np.cos(DELTA / 2) * ((1 + np.cos(phi1)) * np.cos(DELTA)
                                - np.cos(phi1))
    off = -1j * np.sin(DELTA / 2) * np.exp(-1j * phi0 / 2) * (
        (1 + np.cos(phi1)) * np.cos(DELTA) + 1j * np.sin(phi1) + 1)
    assert abs(f1[0, 0] - diag) < 1e-10
    assert abs(f1[0, 1] - off) < 1e-10
    assert abs(np.linalg.det(f1) - 1) < 1e-10


def test_f_fixes_singlet_and_ground():
    joint = evolve_vacuum_state(syn.f_gate(),
                                np.array([0, 1, -1, 0]) / np.sqrt(2), 2)
    assert abs(joint[1, 0] - 1 / np.sqrt(2)) < 1e-9
    assert abs(joint[2, 0] + 1 / np.sqrt(2)) < 1e-9
    joint = evolve_vacuum_state(syn.f_gate(),
                                np.array([0, 0, 0, 1.0]), 2)
    assert abs(joint[3, 0] - 1) < 1e-9
    # and stashes |00⟩⊗|0⟩ into |11⟩⊗|2⟩
    joint = evolve_vacuum_state(syn.f_gate(), np.array([1.0, 0, 0, 0]), 2)
    assert abs(joint[3, 2] - 1) < 1e-9


def test_f_dagger_block_is_sigma_z_mirror():
    # σz commutes with rz and fixes e1, so the A targets of (fd, ·) and
    # (f, ·) placements are σz conjugates: axes mirrored (x, y, z) → (-x, -y, z)
    parts = syn._f_parts()
    assert np.abs(parts["fd"][1] - SIGMA_Z @ parts["f"][1] @ SIGMA_Z).max() < 1e-15


def test_f_dagger_inverts():
    circ = syn.f_gate().gates + syn.f_gate_dagger().gates
    from tcforge.dynamics import Circuit
    bu = apply_circuit(Circuit(2, circ), 3)
    for idx, b in bu.blocks.items():
        assert np.abs(b - np.eye(idx.dim)).max() < 1e-10


# ----------------------------------------------------------------- compiler

def test_compile_phase_triple_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        phis = rng.uniform(-np.pi, np.pi, 3)
        res = syn.compile_two_qubit(*phis)
        assert res.residual < 1e-8
        assert res.tau <= 3.92 + 1e-6


def reference_compile(phi00, phi_psi_plus, phi11):
    """compile_two_qubit written as a loop over the public pieces: the F-free
    shortcut, then one a_gate per placement f+f and f+fd; the first one
    within TAU_TIE of the fastest wins."""
    theta = syn.wrap_pi((phi00 + phi11) / 2)
    theta_p = syn.wrap_pi((phi11 - phi00) / 2)
    circ = {"f": syn.f_gate(), "fd": syn.f_gate_dagger()}
    block = {s: apply_circuit(c, 2).blocks[SectorIndex(2, 1, 2)]
             for s, c in circ.items()}
    rz11 = lambda th: np.diag([1.0, np.exp(1j * th)])
    e1 = np.array([1.0, 0])
    options = []
    if abs(syn.wrap_pi(phi00 + phi11)) < syn.NEAR_IDENTITY:
        v = rz11(phi11) @ e1
        a = syn.a_gate(syn._su2_map_to_first(v, phi_psi_plus))
        options.append(("no-f", simplify(Circuit(2, (Gate("rz", phi11),)
                                                  + a.gates))))
    for s2 in ("f", "fd"):
        v = block[s2] @ rz11(theta) @ block["f"] @ e1
        a = syn.a_gate(syn._su2_map_to_first(v, phi_psi_plus))
        gates = (circ["f"].gates + (Gate("rz", theta),) + circ[s2].gates
                 + a.gates + (Gate("rz", theta_p),))
        options.append((f"f+{s2}", simplify(Circuit(2, gates))))
    fastest = min(interaction_time(c) for _, c in options)
    return next(o for o in options
                if interaction_time(o[1]) <= fastest + syn.TAU_TIE)


def test_compile_matches_per_placement_reference():
    # compile_two_qubit ranks plans on dec.tau plus their F parts' time and
    # builds only the winner; reference_compile builds and times every plan
    rng = np.random.default_rng(43)
    triples = [tuple(rng.uniform(-np.pi, np.pi, 3)) for _ in range(200)]
    triples += [(0.7, 1.1, -0.7),  # φ00 + φ11 ≡ 0: the F-free shortcut
                (-np.pi, -np.pi, -np.pi),  # SWAP: shortcut and an angle-π A
                (1.4884739462014362, 2.4012876269253036, -2.439352522382718)]
    for g in (CZ, ISWAP, u_psi_plus(-2 * np.pi / np.sqrt(3)), uzz(0.7)):
        phases = syn._pi_u1_phases(g)
        triples.append(tuple(syn.wrap_pi(phases[k] - phases["psi-"])
                             for k in ("00", "psi+", "11")))
    for phis in triples:
        res = syn.compile_two_qubit(*phis)
        label, circ = reference_compile(*phis)
        assert res.kind == label, phis
        assert res.circuit.gates == circ.gates, phis
        assert res.tau == interaction_time(circ)
    assert syn.compile_two_qubit(-np.pi, -np.pi, -np.pi).kind == "no-f"


def test_compile_times_a_plan_whose_gadget_has_no_rz(monkeypatch):
    # x rotations by 2.24 and 3.1 both end on a θ1 = 0 gadget.  Its rz pair
    # drops, and for 3.1 simplify merges the tc pulses around it into
    # 0.025 less than dec.tau, so f+fd wins though its dec.tau is larger
    x_turns = [syn.aa_matrix(a, np.array([1.0, 0, 0])) for a in (2.24, 3.1)]
    decs = [syn.decompose_fixed_angle(u) for u in x_turns]
    assert all(d.eulers[-1][0] == 0 for d in decs)
    assert decs[0].tau < decs[1].tau - 0.003
    targets = cycle(x_turns)  # f+f's target, then f+fd's
    monkeypatch.setattr(syn, "_su2_map_to_first", lambda v, phase: next(targets))
    res = syn.compile_two_qubit(0.3, 1.2, -0.5)
    label, circ = reference_compile(0.3, 1.2, -0.5)
    assert res.kind == label == "f+fd"
    assert res.circuit.gates == circ.gates
    assert res.tau == interaction_time(circ) < decs[1].tau + 2 * syn.F_TAU - 0.02


def test_compile_tie_goes_to_first_placement():
    # pool triples #14 and #27 of default_rng(0).uniform(-π, π, (2000, 3)):
    # their F† placements, no longer compiled, once were ahead of the F ones
    # by under 1e-15 of τ; the exact search took #27 down by 6.5e-11
    for phis, kind, tau in (
            ((0.5925045642173261, -1.0184338063523257, -0.6809779034588956),
             "f+f", 2.5134092277966094),
            ((-0.016193681844320018, 0.18417373427004202, 1.7956445157270178),
             "f+fd", 2.0858210929676657)):
        res = syn.compile_two_qubit(*phis)
        assert res.kind == kind
        assert abs(res.tau - tau) <= syn.TAU_TIE
    # F·F† cancels to nothing, so the F-free plan is as fast and comes first
    for phis in ((0.7, 1.1, -0.7), (0.0, 0.0, 0.0)):
        assert syn.compile_two_qubit(*phis).kind == "no-f"


def test_compile_runs_one_search(monkeypatch):
    phis = (0.3, 1.2, -0.5)  # no A target at angle π
    syn.compile_two_qubit(*phis)  # builds the cached F/F† blocks
    calls = {"branches": 0, "axes": 0, "apply": 0, "eigvals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(syn, "_best_over_branches",
                        counted("branches", syn._best_over_branches))
    monkeypatch.setattr(syn.TwoStepFamily, "axes",
                        counted("axes", syn.TwoStepFamily.axes))
    monkeypatch.setattr(syn, "apply_circuit", counted("apply", syn.apply_circuit))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    syn.compile_two_qubit(*phis)
    # one chain-cost pass at every row's critical points, and one eigvals
    # call, on the sextic stack: the other polynomials have degree 1
    assert calls == {"branches": 1, "axes": 1, "apply": 1, "eigvals": 1}


def test_f_dagger_placements_match_their_f_mirrors():
    # fd+fd and fd+f are not compiled: their A targets are the σz mirrors of
    # f+f's and f+fd's, and the exact family minimum gives both the same τ
    parts = syn._f_parts()
    rz11 = lambda th: np.diag([1.0, np.exp(1j * th)])
    rng = np.random.default_rng(47)
    for phi00, phi_psi_plus, phi11 in rng.uniform(-np.pi, np.pi, (12, 3)):
        theta = syn.wrap_pi((phi00 + phi11) / 2)
        a_gate = {}
        for s1, s2 in product(("f", "fd"), repeat=2):
            v = parts[s2][1] @ rz11(theta) @ parts[s1][1] @ np.array([1.0, 0])
            a_gate[s1, s2] = syn._su2_map_to_first(v, phi_psi_plus)
        keys = list(a_gate)
        decs = dict(zip(keys, syn._decompose_all([a_gate[k] for k in keys])))
        for dropped, kept in ((("fd", "fd"), ("f", "f")), (("fd", "f"), ("f", "fd"))):
            assert abs(decs[dropped].tau - decs[kept].tau) <= 1e-9, dropped


# pool triples #477, #1387, #211, #362, #175 and #1075 of
# default_rng(0).uniform(-π, π, (2000, 3)), with the exact family minimum;
# a 6-round 65-point θ zoom found 2.5936, 2.6308, 2.6356, 2.6246 and 2.16056
# for the first five.  #1075's least point is a stationary point of
# β₁ ± β₂, which no kink finds (2.1354 without N₁ρ₂ ± N₂ρ₁)
_POOL_WELLS = [
    ((-2.9548268811183167, 1.2623427771930826, -2.4629987321441744),
     2.5040882524566324),
    ((-1.057205175772598, 1.7443050296470073, -1.1127194024242604),
     2.5517477683320124),
    ((-1.9803091214051742, -1.6216714595150272, 1.4582021699186702),
     2.5848357386165786),
    ((-0.9993163393243565, 2.039799681537504, -0.28714767868581115),
     2.5820346893804382),
    ((1.6474334178098902, 0.7172713050889916, -1.1049209077413753),
     2.1604646497283135),
    ((-0.15014615717708102, 0.18747094226557248, -0.3055331830501351),
     2.1042733703661267),
]


@pytest.mark.parametrize("phis,tau", _POOL_WELLS)
def test_compile_finds_narrow_wells(phis, tau):
    res = syn.compile_two_qubit(*phis)
    assert res.tau <= tau + 1e-9
    assert res.residual < 1e-8


def zoom_family_min(fam, ends):
    """The grid search _family_min replaced: a 65-point full-period θ grid,
    then five 65-point zoom rounds, per row.  Each round recentres on the
    row's cheapest point and shrinks the span to one grid spacing."""
    rows, ticks = np.arange(len(ends)), np.linspace(-1.0, 1.0, 65)
    center, step = np.full(len(ends), np.pi), np.pi
    for _ in range(6):
        thetas = center[:, None] + step * ticks
        out = syn._chain_cost(fam, ends, thetas)
        i = np.argmin(out[0], axis=1)
        center, step = thetas[rows, i], step * 2 / 64
    return tuple(o[rows, i] for o in out)


@settings(max_examples=15, deadline=None)
@given(st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       st.tuples(*[st.integers(-3, 3)] * 3))
@example((np.pi, -0.004537324106032248, 2.333762244609258), (0, -2, -1))
def test_compile_exact_minimum_property(phis, turns):
    # the exact minimum does not depend on how the phases are written mod
    # 2π, and no zoom over the same families beats it; under the zoom the
    # example's two writings differed by 4.8e-5 of τ
    res = syn.compile_two_qubit(*phis)
    shifted = syn.compile_two_qubit(*(p + 2 * np.pi * k for p, k in zip(phis, turns)))
    assert abs(res.tau - shifted.tau) <= 1e-9
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syn, "_family_min", zoom_family_min)
        assert res.tau <= syn.compile_two_qubit(*phis).tau + 1e-9


def test_compile_two_step_boundary_triple():
    # its 3-step remainder sits on the 2-step boundary cos α = cos 2δ, where
    # rounding once left the family axes off unit norm
    res = syn.compile_two_qubit(1.4884739462014362, 2.4012876269253036,
                                -2.439352522382718)
    assert res.residual < 1e-8
    assert res.tau <= 3.92


def test_compile_rejects_non_finite_phases():
    for phases in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)):
        with pytest.raises(ValueError):
            syn.compile_two_qubit(*phases)


@pytest.mark.parametrize("bad", ["0.5", 0.5 + 0j, True, None],
                         ids=["str", "complex", "bool", "none"])
def test_compile_rejects_phases_that_are_not_real(bad):
    # as Gate does; a str or complex phase once gave a bare TypeError
    for at in range(3):
        phases = [0.3, -0.2, 0.1]
        phases[at] = bad
        with pytest.raises(ValueError, match="phase must be a finite real number"):
            syn.compile_two_qubit(*phases)
    assert syn.compile_two_qubit(1, np.float64(0.5), np.int64(-1)).residual < 1e-8


def test_compile_zero_phases_trivial():
    res = syn.compile_two_qubit(0.0, 0.0, 0.0)
    assert res.tau == 0.0
    assert res.residual < 1e-12


@pytest.mark.parametrize("phi", [3e-12, 1e-10, -1e-9, 1e-8])
def test_compile_near_identity_phases(phi):
    # one tiny phase, the others 0 or φ11 = -φ00
    for phis in ((phi, 0, 0), (0, phi, 0), (0, 0, phi), (phi, 0, -phi),
                 (phi, phi, -phi)):
        res = syn.compile_two_qubit(*phis)
        assert res.residual < 1e-8, phis
        assert res.tau <= 3.92


def test_compile_keeps_tiny_psi_plus_phase():
    # its pair axes lie ~1e-8 off the x pole of the Euler embedding, where
    # arccos(n_x) once read the tilt as 0 and lost the phase (residual φ/2)
    for phi in (1e-10, 1e-8, -1.3e-8):
        assert syn.compile_two_qubit(0, phi, 0).residual < 1e-12


def test_compile_one_near_identity_cut():
    # one cut for "already there": a phase above NEAR_IDENTITY is compiled,
    # whether it sits on Ψ+ (the A target) or on φ00 + φ11 (the F-free plan)
    for phis in ((0, 1e-10, 0), (1e-10, 0, 0), (-1e-12, -1.8e-13, 1e-9)):
        res = syn.compile_two_qubit(*phis)
        assert res.residual < 1e-12, phis
        assert res.tau <= 3.92


_TINY = st.builds(lambda sign, e: sign * 10.0 ** e,
                  st.sampled_from([-1.0, 1.0]), st.floats(-13, -6))
_EDGE = st.sampled_from([np.pi, -np.pi, np.nextafter(np.pi, 0),
                         np.nextafter(-np.pi, 0), np.pi / 2, -np.pi / 2, 0.0])
_PHASE = st.one_of(st.floats(-np.pi, np.pi), _TINY, _EDGE)


@settings(max_examples=60, deadline=None)
@given(_PHASE, _PHASE, _PHASE, st.booleans())
@example(0.0, 1e-10, 0.0, False)
@example(-np.pi, -np.pi, -np.pi, False)  # SWAP: an A target at angle π
def test_compile_two_qubit_property(phi00, phi_psi_plus, phi11, shortcut):
    # generic triples, ±π edges, tiny phases and the φ11 = -φ00 shortcut
    if shortcut:
        phi11 = -phi00
    res = syn.compile_two_qubit(phi00, phi_psi_plus, phi11)
    assert res.residual < 1e-8
    assert res.tau <= 3.92


def test_named_gates_match_tables():
    published = {"cz": 2.866, "swap": 1.273, "iswap": 2.546,
                 "sqrt_iswap": 2.688}
    targets = {"cz": CZ, "swap": SWAP, "iswap": ISWAP,
               "sqrt_iswap": SQRT_ISWAP}
    for name, pub in published.items():
        res = syn.named_gate(name)
        assert abs(res.tau - pub) <= 0.01, (name, res.tau)
        vs = vacuum_sandwich(apply_circuit(res.circuit, 2))
        assert distance_up_to_phase(vs.matrix, targets[name]) < 1e-8
        # reported global phase reconstructs the exact matrix
        assert np.abs(np.exp(1j * res.global_phase) * vs.matrix
                      - targets[name]).max() < 1e-8


def test_named_swap_pin():
    # -I's third axis ŷ, not a zoomed sphere scan: no zoom-artifact pulses
    # (tc(-1.0e-4), tc(-6.7e-12)) and τ below the zoom's 1.272592942616872
    res = syn.named_gate("swap")
    assert res.tau <= 1.2725929400380318 + 1e-12
    assert len(res.circuit.gates) == 11
    assert min(abs(g.param) for g in res.circuit.gates if g.kind == "tc") >= 1e-9
    assert res.residual < 1e-13


# Circuits that hang on the explicit θ = 0, π candidates of _critical_thetas:
# without them τ agrees to 1e-15, yet the gates move in their last bits.  The
# triple is #37 of the synth benchmark's pool (default_rng(0), 2000 × 3).
PINNED_CIRCUITS = {
    "swap": (
        ("rz", -3.141592653589793), ("tc", -0.15031914094812485),
        ("rz", -0.5411648916823302), ("tc", 2.565099660323728),
        ("rz", -2.059262870225133), ("tc", 2.565099660323728),
        ("rz", 2.600427761907463), ("tc", 0.15031914094812485),
        ("rz", 1.5707963267948966), ("tc", 2.565099660323728),
        ("rz", -1.5707963267948966)),
    (-2.9633678082757333, 1.3773984556682217, -3.041113653610896): (
        ("rz", -1.064893096409941), ("tc", 1.282549830161864),
        ("rz", 0.5589898660249855), ("tc", 1.282549830161864),
        ("rz", -0.5589898660249855), ("tc", 1.282549830161864),
        ("rz", -3.0022407309433143), ("tc", -1.282549830161864),
        ("rz", 0.5589898660249855), ("tc", -1.282549830161864),
        ("rz", -0.5589898660249855), ("tc", -1.282549830161864),
        ("rz", 1.064893096409941), ("tc", 0.05090299022932414),
        ("rz", -0.3057145598471127), ("tc", 2.565099660323728),
        ("rz", 0.3057145598471127), ("tc", 0.08313714285859679),
        ("rz", -0.7663693793012949), ("tc", 2.565099660323728),
        ("rz", 0.7663693793012949), ("tc", 0.06123217668363262),
        ("rz", -0.5203922798505424), ("tc", 2.565099660323728),
        ("rz", 0.5203922798505424), ("tc", -0.19527230977155355),
        ("rz", -0.03887292266758102)),
}


def test_compiled_circuits_are_pinned_gate_for_gate():
    for target, gates in PINNED_CIRCUITS.items():
        res = (syn.named_gate(target) if isinstance(target, str)
               else syn.compile_two_qubit(*target))
        assert tuple((g.kind, g.param) for g in res.circuit.gates) == gates, target


def test_named_iswap_has_no_rounding_pulse():
    # the neighbour kink's roots are exact, so the tc(t2ᵢ₊₁ - t2ᵢ) that
    # rounding left at -1.2e-15 merges to an exact 0 and drops
    res = syn.named_gate("iswap")
    assert len(res.circuit.gates) == 24
    assert min(abs(g.param) for g in res.circuit.gates if g.kind == "tc") >= 1e-9


def fibonacci_sphere(count):
    i = np.arange(count)
    phi, z = np.pi * (3 - np.sqrt(5)) * i, 1 - 2 * (i + 0.5) / count
    r = np.sqrt(1 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def test_minus_identity_axis_beats_a_sphere_scan():
    # -I's 3-step chain peels exp(iδ μ̂·σ) about a free axis μ̂ and 2-steps
    # the remainder; each axis is costed by its exact family minimum
    mus = np.vstack([[0.0, 1.0, 0.0], fibonacci_sphere(2000)])
    rest = [syn.su2_axis_angle(syn.aa_matrix(-DELTA, mu) @ -np.eye(2)) for mu in mus]
    fam = syn.TwoStepFamily(np.stack([r.axis for r in rest]),
                            np.array([r.angle for r in rest]), DELTA)
    cost = syn._family_min(fam, -mus[:, None])[0]
    assert np.isfinite(cost).all()
    assert cost[0] <= cost.min() + 1e-12
    dec = syn.decompose_fixed_angle(-np.eye(2))
    assert dec.kind == "3-step" and np.array_equal(dec.steps[-1][1], mus[0])
    assert abs(dec.tau * 2 * np.pi - 3 * syn.CORE_R - cost[0]) < 1e-12


# the paper's 8-digit (θ1, θ2) of the sqrt(iSWAP) A gate's three gadgets
SQRT_ISWAP_PAPER_ANGLES = [(1.69646350, -0.09519097), (2.28652854, 0.58015043),
                           (2.54885204, 0.07041776)]


def test_sqrt_iswap_pinned_angles_are_the_papers_made_exact():
    eulers = np.array(syn._SQRT_ISWAP_EULERS)
    paper = np.array(SQRT_ISWAP_PAPER_ANGLES)
    # the first θ1 + π, 1.6964635054, is the one 5.4e-9 from the paper's digits
    assert np.abs(eulers[:, 1] - paper[:, 1]).max() < 5e-9
    assert np.abs(eulers[:, 0] + np.pi - paper[:, 0]).max() < 6e-9
    # gadgets exp(-iδ n̂·σ) in time order recompose the fd+fd A gate
    f1d = syn._pi11(syn.f_gate_dagger())
    u_a = syn._su2_map_to_first(
        f1d @ np.diag([1.0, np.exp(1j * np.pi / 4)]) @ f1d @ [1.0, 0], np.pi / 2)
    product = np.eye(2)
    for t1, t2 in eulers:
        product = syn.aa_matrix(-DELTA, _axis_from_angles(t1, t2)) @ product
    assert np.abs(product - u_a).max() <= syn.RECOMPOSE_ATOL
    res = syn.named_gate("sqrt_iswap")
    assert abs(res.tau - 2.686872256045596) < 1e-12
    assert res.residual < 1e-13


def test_named_uzz_and_psi_plus():
    res = syn.named_gate("uzz", phi=0.7)
    vs = vacuum_sandwich(apply_circuit(res.circuit, 2))
    assert distance_up_to_phase(vs.matrix, uzz(0.7)) < 1e-8
    res = syn.named_gate("upsiplus")
    assert abs(res.tau - 0.585) < 0.01
    vs = vacuum_sandwich(apply_circuit(res.circuit, 2))
    want = u_psi_plus(-2 * np.pi / np.sqrt(3))
    assert distance_up_to_phase(vs.matrix, want) < 1e-8
    with pytest.raises(ValueError):
        syn.named_gate("uzz")
    with pytest.raises(ValueError):
        syn.named_gate("toffoli")
    with pytest.raises(ValueError, match="^unknown gate 1.5$"):  # was AttributeError
        syn.named_gate(1.5)


@pytest.mark.parametrize("name", ["cz", "swap", "iswap", "sqrt_iswap", "CZ"])
def test_named_gate_refuses_phi_where_it_takes_none(name):
    # phi was silently ignored: named_gate("cz", phi=0.3) compiled plain CZ
    with pytest.raises(ValueError, match="^phi applies to uzz and upsiplus only"):
        syn.named_gate(name, phi=0.3)


def test_named_gate_knows_only_its_documented_names():
    with pytest.raises(ValueError, match="^unknown gate 'u_psi_plus'$"):
        syn.named_gate("u_psi_plus")
    # upsiplus keeps its phi, defaulting to the reference angle
    given = syn.named_gate("upsiplus", phi=-2 * np.pi / np.sqrt(3))
    assert given.circuit.gates == syn.named_gate("upsiplus").circuit.gates


def test_pi_u1_phases_rejects_nan():
    # NaN phases once came back in place of this error
    with pytest.raises(ValueError, match="not PI and U\\(1\\)-invariant"):
        syn._pi_u1_phases(np.full((4, 4), np.nan))
    # unit-modulus Ψ± diagonals, but |Ψ+⟩⟨Ψ-| couples the singlet in
    psi_p, psi_m = np.array([0, 1, 1, 0]) / np.sqrt(2), np.array([0, 1, -1, 0]) / np.sqrt(2)
    with pytest.raises(ValueError, match="^target mixes the singlet with the triplet$"):
        syn._pi_u1_phases(np.eye(4) + np.outer(psi_p, psi_m))


def test_qubit_osc_swap_mapping():
    res = syn.qubit_osc_swap()
    assert abs(res.tau - 1.44) <= 0.01
    assert res.residual < 1e-9
    triplet = {2: np.array([1, 0, 0, 0], dtype=complex),
               1: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
               0: np.array([0, 0, 0, 1], dtype=complex)}
    for k, psi in triplet.items():
        joint = evolve_vacuum_state(res.circuit, psi, 2)
        assert abs(joint[3, k]) ** 2 >= 1 - 1e-8
    # superpositions transfer amplitude-faithfully
    rng = np.random.default_rng(2)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    c /= np.linalg.norm(c)
    psi = c[0] * triplet[2] + c[1] * triplet[1] + c[2] * triplet[0]
    joint = evolve_vacuum_state(res.circuit, psi, 2)
    assert abs(joint[3, 2] - c[0]) < 1e-8
    assert abs(joint[3, 1] - c[1]) < 1e-8
    assert abs(joint[3, 0] - c[2]) < 1e-8


def test_ghz_circuit():
    circ = syn.ghz_circuit()
    joint = evolve_vacuum_state(circ, np.array([1.0, 0, 0, 0]), 4)
    ghz = np.zeros(4, dtype=complex)
    ghz[0] = ghz[3] = 1 / np.sqrt(2)
    overlap = abs(np.vdot(ghz, joint[:, 0])) ** 2
    assert overlap >= 1 - 1e-8
    assert np.sum(np.abs(joint[:, 1:]) ** 2) < 1e-8
    # no singlet component appears
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert abs(singlet @ joint[:, 0]) < 1e-9

"""Two-qubit gate synthesis from coupling pulses and global z rotations.

The primitive is a conjugated half-period pulse ("gadget")

    tc(θ2) rz(θ1) tc(2πk/√6) rz(-θ1) tc(-θ2)        (time order)

whose charge-1 block is a Bloch rotation exp(-i(n̂·σ)2πk/√3) about an axis
n̂ set by the two angles, while the charge-0 and charge-2 blocks cancel to
the identity exactly.  Arbitrary SU(2) blocks are then built as products
of one to four such fixed-angle rotations, and arbitrary PI U(1)-invariant
two-qubit unitaries from those together with the excitation-stashing F
circuit.  Interaction time is minimised over the continuous axis-family
freedom and the four Euler branches per axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .dynamics import Circuit, Gate, apply_circuit, interaction_time, \
    simplify, vacuum_sandwich
from .qubits import CZ, ISWAP, SIGMA_X, SIGMA_Y, SIGMA_Z, SQRT_ISWAP, SWAP, u_psi_plus, uzz
from .sectors import SectorIndex, require_finite, require_real, wrap_pi

DELTA = 2 * np.pi / np.sqrt(3)      # fixed Bloch rotation angle per pulse
CORE_R = 2 * np.pi / np.sqrt(6)     # tc parameter realizing one such pulse
RECOMPOSE_ATOL = 1e-9               # largest entry error of a checked product
TAU_TIE = 1e-12                     # placements this close in τ are equally fast
NEAR_IDENTITY = 1e-12               # angle or phase below which a target is reached

_PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
_EYE2 = np.eye(2)
_PSI_PM = 0.5 * np.array([[[1, 1], [1, 1]], [[1, -1], [-1, 1]]])  # Ψ± in (|01⟩, |10⟩)


@dataclass(frozen=True)
class AxisAngle:
    """Rotation exp(i·angle·axis·σ); axis is None when the angle is 0 mod π."""

    axis: Optional[np.ndarray]
    angle: float


def aa_matrix(angle, axis: np.ndarray) -> np.ndarray:
    """exp(i·angle·axis·σ), angle (...) and axis (..., 3) broadcast."""
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.cos(angle) * _EYE2 + 1j * np.sin(angle) * np.einsum(
        "...i,ijk->...jk", axis, _PAULI)


def su2_axis_angle(u: np.ndarray) -> AxisAngle:
    """Canonical (angle ∈ [0, π], axis) with u = exp(i·angle·axis·σ)."""
    c = np.real(u[0, 0] + u[1, 1]) / 2
    w = np.array([np.imag(u[0, 1] + u[1, 0]) / 2,
                  np.real(u[0, 1] - u[1, 0]) / 2,
                  np.imag(u[0, 0] - u[1, 1]) / 2])
    s = np.linalg.norm(w)
    angle = float(np.arctan2(s, c))
    if s < 1e-12:
        return AxisAngle(None, angle if c > 0 else np.pi)
    return AxisAngle(w / s, angle)


def _euler_options(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """θ1/θ2 for all four branches; axes (..., 3) -> arrays (..., 4)."""
    tilt = np.hypot(axes[..., 1], axes[..., 2])  # sin 2γ
    two_gamma = np.arctan2(tilt, axes[..., 0])
    beta = np.where(tilt < 1e-12, 0.0,
                    np.arctan2(axes[..., 2], -axes[..., 1]) / 2)
    betas = np.stack([beta, beta + np.pi, beta + np.pi / 2, beta - np.pi / 2],
                     axis=-1)
    betas = wrap_pi(betas)
    theta1 = np.stack([two_gamma, two_gamma, -two_gamma, -two_gamma], axis=-1)
    return theta1, betas / np.sqrt(2)


def euler_embed(axis: np.ndarray) -> list[tuple[float, float]]:
    """Four (θ1, θ2) pairs conjugating the x axis of the charge-1 block
    onto ``axis``: n_x = cos(2γ), n_y = -sin(2γ)cos(2β), n_z = sin(2γ)sin(2β),
    with θ1 = 2γ and θ2 = β/√2."""
    theta1, theta2 = _euler_options(require_finite(axis, "axis"))
    return [(float(t1), float(t2)) for t1, t2 in zip(theta1, theta2)]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) without its per-call set-up, which dominates on few rows."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _perp(axis: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each axis; axis (..., 3)."""
    probe = np.where(np.abs(axis[..., :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
    v = _cross(axis, probe)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@dataclass
class TwoStepFamily:
    """One-parameter family of axis pairs with
    exp(iγ n̂2·σ)·exp(iγ n̂1·σ) = exp(iα μ̂·σ), parametrised by a rotation
    of the pair about the target axis μ̂.  mu may carry leading batch axes
    (..., 3); alpha and gamma are shared scalars or one value per row.
    Each axis traces a circle n̂ = A + B cos θ + C sin θ, A (..., 3) shared
    and B, C (..., 2, 3) per axis: n̂1,2 = (u ê ± w μ̂ × g)/√(u² + w²) with
    g = cos θ ĝ0 + sin θ ĝ1 ⊥ μ̂ and ê ∝ ±(cos γ μ̂ − w sin γ g) the pair's
    unit bisector.  An identity row (α = 0, u = 0) is an antipodal pair."""

    mu: np.ndarray
    alpha: float | np.ndarray
    gamma: float | np.ndarray
    A: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)
    C: np.ndarray = field(init=False)

    def __post_init__(self):
        # per-row scalars, shaped (..., 1) against the (..., 3) axes
        alpha, gamma = (np.asarray(x, dtype=float)[..., None]
                        for x in (self.alpha, self.gamma))
        c, s = np.cos(gamma), np.sin(gamma)
        d = np.clip((c * c - np.cos(alpha)) / (s * s), -1.0, 1.0)
        # u = |sin(α/2)/sin γ|, not √((1 + d)/2): 1 + d cancels to 0 once
        # cos α rounds to 1 (α below ≈ 1.5e-8)
        u = np.minimum(np.abs(np.sin(alpha / 2) / s), 1.0)
        w = np.sqrt((1 - d) / 2)
        r = np.hypot(u, w)  # 1 up to rounding in d
        sign, norm = np.sign(np.sin(alpha) * s), np.sqrt(c * c + w * w * s * s)
        e_mu, e_g = sign * c / norm, -sign * s * w / norm  # ê = e_mu μ̂ + e_g g
        g0 = _perp(self.mu)
        g1 = _cross(self.mu, g0)
        p, q = (u * e_g / r)[..., None], (w / r)[..., None] * [[1.0], [-1.0]]
        self.A = u * e_mu * self.mu / r
        self.B = p * g0[..., None, :] + q * g1[..., None, :]  # rows n̂1, n̂2
        self.C = p * g1[..., None, :] - q * g0[..., None, :]

    def axes(self, theta):
        """(n̂1, n̂2) at family parameter theta, (G,) shared or (..., G) per
        row, each (..., G, 3)."""
        theta = np.asarray(theta, dtype=float)[..., None, None]
        n = (self.A[..., None, None, :] + np.cos(theta) * self.B[..., None, :, :]
             + np.sin(theta) * self.C[..., None, :, :])
        return n[..., 0, :], n[..., 1, :]


def _two_step_ok(angle: float, step_angle: float) -> bool:
    return bool(np.cos(angle) >= np.cos(2 * step_angle) - 1e-12)  # NaN: False


def _axis_or_z(aa: AxisAngle) -> np.ndarray:
    return aa.axis if aa.axis is not None else np.array([0.0, 0, 1.0])


def solve_two_step(target: AxisAngle, step_angle: float) -> Optional[TwoStepFamily]:
    """Family of decompositions into two rotations of fixed ``step_angle``,
    or None when cos(target.angle) < cos(2·step_angle)."""
    step_angle = require_real(step_angle, "step_angle")
    require_real(target.angle, "target angle")
    if target.axis is not None:
        require_finite(target.axis, "target axis")
    if abs(np.sin(step_angle)) < 1e-12:
        raise ValueError("step angle must not be a multiple of π")
    if not _two_step_ok(target.angle, step_angle):
        return None
    return TwoStepFamily(_axis_or_z(target), target.angle, step_angle)


@dataclass
class Decomposition:
    """Product of fixed-angle factors realizing an SU(2) target.

    ``steps`` holds (k, axis) for factors exp(i·kδ·axis·σ) in time order;
    ``eulers`` the chosen (θ1, θ2) per factor, for the negated gadget axis.
    tau is the compiled interaction time in units of 2π/g.
    """

    kind: str
    steps: tuple
    eulers: tuple
    tau: float


def _best_over_branches(axes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least chain cost ((|t₁| + |t₂-t₁|) + |t₃-t₂|) + |t₃| of the θ2 angles
    over the 4³ Euler branch combos of three gadget axes, each (..., 3);
    ties go to the first combo in (t₃, t₂, t₁) order.  Returns (cost (...),
    θ1 (..., 3), θ2 (..., 3)) of the combo achieving it.
    """
    t1, t2 = _euler_options(np.stack(np.broadcast_arrays(*axes), axis=-2))
    a, b, c = (t2[..., i, :] for i in range(3))  # (..., 4) each
    ab = np.abs(a)[..., None, :] + np.abs(b[..., :, None] - a[..., None, :])  # [b₂, b₁]
    cost = (ab[..., None, :, :] + np.abs(c[..., :, None, None] - b[..., None, :, None])
            + np.abs(c)[..., :, None, None])  # [..., b₃, b₂, b₁]
    i = np.argmin(cost.reshape(cost.shape[:-3] + (64,)), axis=-1)[..., None]
    combo = np.stack([i % 4, i // 4 % 4, i // 16], axis=-2)  # (..., 3, 1): b₁, b₂, b₃
    return (cost.min(axis=(-3, -2, -1)),
            np.take_along_axis(t1, combo, -1)[..., 0],
            np.take_along_axis(t2, combo, -1)[..., 0])


# third-factor axis of the fastest 3-step product for -I, whose gadget has
# θ2 = 0: no axis of a 40,000-point sphere scan, each costed exactly by
# _family_min, is cheaper, and ŷ lies inside a flat optimum that covers
# 27 % of the μ_x = 0 great circle
_MINUS_I_AXIS = np.array([0.0, 1.0, 0])

# gadget axis padding a shorter chain to three factors: its Euler branch 0 is
# θ1 = θ2 = 0, which adds exactly 0 to the chain cost
_PAD_AXIS = np.array([1.0, 0, 0])


def _chain_cost(fam: TwoStepFamily, ends: np.ndarray, thetas):
    """Best Euler branches of the gadget chains (-n̂1, -n̂2, ends) at the
    family parameters thetas (gadgets realize exp(-ikδ n̂·σ)).  Returns the
    (..., G) chain cost, the (..., G, 3) θ1 and θ2, and n̂1, n̂2."""
    n1, n2 = fam.axes(thetas)
    return _best_over_branches([-n1, -n2, ends]) + (n1, n2)


@lru_cache(maxsize=None)
def _mul_mask(m: int, k: int) -> np.ndarray:
    """[i, j, l] = (i + j == l): where a coefficient product of sizes m, k lands."""
    mask = np.add.outer(np.arange(m), np.arange(k))[..., None] == np.arange(m + k - 1)
    mask.setflags(write=False)
    return mask


def _mul(p, q):
    """Product of Laurent polynomials in z = e^{iθ}, coefficients (..., m)."""
    return np.einsum("...i,...j,ijk->...k", p, q, _mul_mask(p.shape[-1], q.shape[-1]))


def _linear_roots(c):
    """Both θ of a + ρ cos(θ - φ) = 0 per row, c (R, k, 3) = (ρe^{iφ}/2, a, ·);
    a root pair off the circle gives its angle, a zero polynomial NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.arccos(np.clip(-c[..., 1].real / (2 * np.abs(c[..., 0])), -1, 1))
    return (np.angle(c[..., :1]) + np.stack([d, -d], axis=-1)).reshape(len(c), -1)


def _companion_roots(q):
    """Angles of all roots of z^d·p(z) per row, q (R, ..., 2d + 1) the Laurent
    coefficients of p, by companion eigvals.  A vanishing top harmonic lowers
    the degree: both end coefficients go and z² - i^j, two fixed angles, is
    multiplied in.  A zero or NaN p gives the 2d-th roots of unity."""
    n = q.shape[-1] - 1
    for j in range(n // 2):
        low = ~(np.abs(q[..., -1:]) > 1e-13 * np.abs(q).max(-1, keepdims=True))
        if not low.any():  # no row left to deflate
            break
        up = np.concatenate([np.zeros_like(q[..., :2]), q[..., 1:-1]], -1)  # z²·r
        q = np.where(low, up - 1j ** j * np.roll(up, -2, -1), q)
    q = np.where(np.abs(q[..., -1:]) > 0, q, np.eye(n + 1)[n] - np.eye(n + 1)[0])
    comp = np.broadcast_to(np.eye(n, k=-1), q.shape[:-1] + (n, n)).astype(complex)
    comp[..., -1] = -q[..., :-1] / q[..., -1:]
    return np.angle(np.linalg.eigvals(comp)).reshape(len(q), -1)


def _critical_thetas(fam: TwoStepFamily, ends: np.ndarray) -> np.ndarray:
    """Every θ where the chain cost of (-n̂1, -n̂2, ends) can be least, (R, 26).
    A branch combo's cost is linear in β = ½atan2(z, -y) of the moving axes:
    it kinks where a t vanishes (z = 0) or neighbours meet (y₁z₂ = y₂z₁,
    y₂z₃ = y₃z₂), and is stationary where β₁', β₂' or β₁' ± β₂' vanish, with
    β' ∝ N = yz' - zy' of degree 1 (N₁ρ₂ ± N₂ρ₁ = 0, ρ = y² + z²).  A wrap
    of β moves only a branch with |t| ≈ π/√2, never in a cheapest chain.
    y₁z₂ - y₂z₁ = (n̂1 × n̂2)_x has degree 1 too; θ = 0, π stay candidates."""
    # Laurent coefficients (z⁻¹, 1, z) of every axis component, (R, 2, 3, 3)
    circ = np.stack([(fam.B + 1j * fam.C) / 2,
                     np.broadcast_to(fam.A[:, None], fam.B.shape),
                     (fam.B - 1j * fam.C) / 2], axis=-1)
    (y1, z1), (y2, z2) = np.moveaxis(circ[:, :, 1:], 0, 2)
    ey, ez = ends[:, 0, 1:2], ends[:, 0, 2:]
    ik = np.array([-1j, 0, 1j])  # d/dθ; the z^±2 terms of yz' - zy' cancel
    (n1, rho1), (n2, rho2) = (((_mul(y, z * ik) - _mul(z, y * ik))[..., 1:-1],
                               _mul(y, y) + _mul(z, z)) for y, z in ((y1, z1), (y2, z2)))
    kink = (_mul(y1, z2) - _mul(y2, z1))[..., 1:-1]
    return np.concatenate([
        _linear_roots(np.stack([z1, z2, y2 * ez - ey * z2, kink, n1, n2], axis=1)),
        np.broadcast_to([0.0, np.pi], (len(kink), 2)),
        _companion_roots(np.stack([_mul(n1, rho2) + sign * _mul(n2, rho1)
                                   for sign in (1, -1)], axis=1))], axis=1)


def _family_min(fam: TwoStepFamily, ends: np.ndarray):
    """_chain_cost's entries at each row's first critical θ in [0, 2π) within
    TAU_TIE of its least finite cost; a row with no finite cost raises."""
    thetas = np.sort(np.mod(_critical_thetas(fam, ends), 2 * np.pi), axis=1)
    out = _chain_cost(fam, ends, thetas)
    cost = np.where(np.isfinite(out[0]), out[0], np.inf)
    least = cost.min(axis=1, keepdims=True)
    if not np.isfinite(least).all():
        raise AssertionError("no finite chain cost in a family")
    i, rows = np.argmax(cost <= least + TAU_TIE, axis=1), np.arange(len(cost))
    return tuple(o[rows, i] for o in out)


def _gadgets(steps, eulers) -> tuple[Gate, ...]:
    """The five-gate gadget of every factor, in time order."""
    gates: list[Gate] = []
    for (k, _axis), (t1, t2) in zip(steps, eulers):
        gates += [Gate("tc", t2), Gate("rz", t1), Gate("tc", k * CORE_R),
                  Gate("rz", -t1), Gate("tc", -t2)]
    return tuple(gates)


def _verify_steps(ks, axes, targets) -> None:
    """Raise unless each chain of factors exp(i·kδ·axis·σ), ks (..., 3) and axes
    (..., 3, 3) in time order, multiplies to its target; k = 0 pads with I."""
    f = aa_matrix(DELTA * np.asarray(ks), axes)
    defect = np.abs(f[..., 2, :, :] @ f[..., 1, :, :] @ f[..., 0, :, :] - targets).max()
    if not defect <= RECOMPOSE_ATOL:
        raise AssertionError(f"recomposition defect {defect:.2e}")


def decompose_fixed_angle(u: np.ndarray) -> Decomposition:
    """Best fixed-angle product for an SU(2) target u (ValueError if it is
    not one), minimizing interaction time over feasible step counts, the
    axis-family parameter and the four Euler branches per axis."""
    return _decompose_all([require_finite(u, "u", complex)])[0]


def _decompose_all(us) -> list[Decomposition]:
    """decompose_fixed_angle of every target, with one exact search over
    the family parameter and Euler branches of all their chains.

    A chain (t, k, mu, alpha, last) is the TwoStepFamily pair of k-fold
    steps realizing exp(i·alpha·mu·σ), then one 1-fold step about ``last``
    unless it is None; the product must equal target t.
    """
    us = [np.asarray(u, dtype=complex) for u in us]
    found, chains = [], []
    for t, u in enumerate(us):
        if u.shape != (2, 2) or not (
                np.abs(u.conj().T @ u - _EYE2).max() <= 1e-9):
            raise ValueError("fixed-angle target must be a 2x2 unitary")
        if not (abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1) <= 1e-10):
            raise ValueError("fixed-angle target must have determinant 1")
        own, direct = _candidates(u)
        chains += [(t,) + c for c in own]
        found.append(direct)
    if chains:
        ts, ks, mus, alphas, lasts = zip(*chains)
        fam = TwoStepFamily(np.stack(mus), np.array(alphas), np.array(ks) * DELTA)
        ends = np.stack([_PAD_AXIS if a is None else -a for a in lasts])[:, None]
        chain, t1, t2, n1, n2 = _family_min(fam, ends)
        _verify_steps([(k, k, last is not None) for k, last in zip(ks, lasts)],
                      np.stack([n1, n2, -ends[:, 0]], axis=1), np.stack(us)[list(ts)])
    for r, (t, k, _, _, last) in enumerate(chains):
        steps = ((k, n1[r]), (k, n2[r])) + (() if last is None else ((1, last),))
        pulses = sum(kk for kk, _ in steps)
        found[t].append(Decomposition(
            f"{pulses}-step", steps,
            tuple((float(a), float(b)) for a, b in zip(t1[r], t2[r]))[:len(steps)],
            float((pulses * CORE_R + chain[r]) / (2 * np.pi))))
    if not all(found):
        raise AssertionError("no feasible fixed-angle decomposition")
    # ties go to fewer steps: kinds "0-step" … "4-step" sort as strings
    return [min(c, key=lambda d: (d.tau, d.kind)) for c in found]


def _candidates(u: np.ndarray) -> tuple[list[tuple], list[Decomposition]]:
    """One target's chains (k, mu, alpha, last) for _decompose_all (2- and
    4-step, then 3-step) and its candidates that need no family search."""
    aa = su2_axis_angle(u)
    if aa.axis is None and aa.angle < NEAR_IDENTITY:
        return [], [Decomposition("0-step", (), (), 0.0)]
    chains = [(k, _axis_or_z(aa), aa.angle, None) for k in (1, 2)
              if _two_step_ok(aa.angle, k * DELTA)]
    # 3-step: peel one fixed-angle rotation about the target axis (either
    # sign), then 2-step the remainder.  At angle π (-I) the axis is free.
    if aa.axis is None and aa.angle > np.pi - 1e-9:
        plans = [(_MINUS_I_AXIS, 1.0)]
    else:
        plans = [] if aa.axis is None else [(aa.axis, 1.0), (aa.axis, -1.0)]
    for mu, sign in plans:
        rest = su2_axis_angle(aa_matrix(-sign * DELTA, mu) @ u)
        if _two_step_ok(rest.angle, DELTA):
            chains.append((1, _axis_or_z(rest), rest.angle, sign * mu))
    # 1-step: the target is itself a rotation by the fixed angle
    if aa.axis is None or not abs(np.cos(aa.angle) - np.cos(DELTA)) < 1e-12:
        return chains, []
    n_hat = aa.axis * np.sign(np.sin(aa.angle) / np.sin(DELTA))
    cost, t1, t2 = _best_over_branches([-n_hat, _PAD_AXIS, _PAD_AXIS])
    _verify_steps((1, 0, 0), np.stack([n_hat] * 3), u)
    return chains, [Decomposition("1-step", ((1, n_hat),), ((float(t1[0]), float(t2[0])),),
                                  float((CORE_R + cost) / (2 * np.pi)))]


def a_gate(u: np.ndarray) -> Circuit:
    """Circuit acting as u on the two-qubit charge-1 sector and as the
    identity on charges 0 and 2 (and on the whole singlet tower)."""
    dec = decompose_fixed_angle(u)
    return simplify(Circuit(2, _gadgets(dec.steps, dec.eulers)))


F_PHI1 = 0.5 * np.arccos(7 / 16)
F_PHI0 = np.arctan(-np.sqrt(23) / 3) + np.pi
F_CHARGE2 = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
F_TAU = 3 * (np.pi / np.sqrt(6)) / (2 * np.pi)  # interaction time of F and of F†


def f_gate() -> Circuit:
    """Excitation-stashing circuit: swaps |00⟩⊗|0⟩ ↔ |11⟩⊗|2⟩ exactly."""
    r = np.pi / np.sqrt(6)
    return Circuit(2, (Gate("rz", -F_PHI0 / 2), Gate("tc", r), Gate("rz", F_PHI1),
                       Gate("tc", r), Gate("rz", -F_PHI1), Gate("tc", r),
                       Gate("rz", F_PHI0 / 2)))


def f_gate_dagger() -> Circuit:
    gates = tuple(Gate(g.kind, -g.param) for g in reversed(f_gate().gates))
    return Circuit(2, gates)


def _pi11(circ: Circuit) -> np.ndarray:
    """The circuit's charge-1 block, read-only."""
    block = apply_circuit(circ, 2).blocks[SectorIndex(2, 1, 2)]
    block.setflags(write=False)
    return block


@lru_cache(maxsize=None)
def _f_parts() -> dict[str, tuple[Circuit, np.ndarray]]:
    """F and F† with their read-only charge-1 blocks, built once, shared."""
    return {name: (c, _pi11(c)) for name, c in (("f", f_gate()),
                                                ("fd", f_gate_dagger()))}


@dataclass
class SynthesisResult:
    circuit: Circuit
    tau: float
    kind: str
    params: dict
    residual: float
    global_phase: float
    target: np.ndarray


def _su2_map_to_first(v: np.ndarray, phase: float) -> np.ndarray:
    """The unique SU(2) element sending unit vector v to e^{i·phase}·e1."""
    vperp = np.array([-np.conj(v[1]), np.conj(v[0])])
    out = np.zeros((2, 2), dtype=complex)
    out += np.exp(1j * phase) * np.outer(np.array([1.0, 0]), v.conj())
    out += np.exp(-1j * phase) * np.outer(np.array([0, 1.0]), vperp.conj())
    return out


def compile_two_qubit(phi00: float, phi_psi_plus: float,
                      phi11: float) -> SynthesisResult:
    """Circuit realizing diag phases (φ00, φΨ+, φ11, 0 on the singlet).

    Tries the F-free shortcut, when |φ00 + φ11| mod 2π < NEAR_IDENTITY, and
    f+f and f+fd, with all their A gates in one search; the first plan
    within TAU_TIE of the fastest wins.  F†'s charge-1 block is σz·F's·σz,
    so fd+fd and fd+f, σz mirrors of f+f and f+fd, are no faster.
    """
    phi00, phi_psi_plus, phi11 = (require_real(p, "phase")
                                  for p in (phi00, phi_psi_plus, phi11))
    theta = wrap_pi((phi00 + phi11) / 2)
    theta_p = wrap_pi((phi11 - phi00) / 2)
    rz11 = lambda th: np.diag([1.0, np.exp(1j * th)])  # charge-1 rz block
    e1 = np.array([1.0, 0])

    # (label, gates before the A gate, gates after it, A's image of e1, θ, θ')
    plans = []
    if abs(wrap_pi(phi00 + phi11)) < NEAR_IDENTITY:
        plans.append(("no-f", (Gate("rz", phi11),), (), rz11(phi11) @ e1,
                      phi11, 0.0))
    f, bf = _f_parts()["f"]
    for s2, (c2, b2) in _f_parts().items():
        plans.append((f"f+{s2}", f.gates + (Gate("rz", theta),) + c2.gates,
                      (Gate("rz", theta_p),), b2 @ rz11(theta) @ bf @ e1,
                      theta, theta_p))
    decs = _decompose_all([_su2_map_to_first(p[3], phi_psi_plus) for p in plans])
    build = lambda p, d: simplify(Circuit(2, p[1] + _gadgets(d.steps, d.eulers) + p[2]))
    # a plan takes dec.tau plus its F parts' time, unless a gadget's θ1 is 0:
    # simplify drops its rz pair and may merge its tc pulses into less
    taus = [interaction_time(build(p, dec)) if any(t1 == 0 for t1, _ in dec.eulers)
            else dec.tau + (p[0] != "no-f") * 2 * F_TAU for p, dec in zip(plans, decs)]
    best = next(i for i, t in enumerate(taus) if t <= min(taus) + TAU_TIE)
    label, _, _, _, th, thp = plans[best]
    circuit = build(plans[best], decs[best])
    return _phase_result(circuit, label, (phi00, phi_psi_plus, phi11), th, thp)


def _phase_result(circuit: Circuit, kind: str, phases,
                  theta: float, theta_p: float) -> SynthesisResult:
    """Result for diag phases (φ00, φΨ+, φ11, 0 on the singlet), with the
    residual of the circuit's vacuum sandwich against them."""
    phi00, phi_psi_plus, phi11 = phases
    t = np.zeros((4, 4), dtype=complex)
    t[0, 0] = cmath.exp(1j * phi00)
    t[3, 3] = cmath.exp(1j * phi11)
    t[1:3, 1:3] = cmath.exp(1j * phi_psi_plus) * _PSI_PM[0] + _PSI_PM[1]
    vs = vacuum_sandwich(apply_circuit(circuit, 2))
    return SynthesisResult(circuit, interaction_time(circuit), kind,
                           {"theta": theta, "theta_prime": theta_p,
                            "theta_plus": phi_psi_plus},
                           float(np.abs(vs.matrix - t).max()), 0.0, t)


NAMED_TARGETS = {"cz": CZ, "swap": SWAP, "iswap": ISWAP, "sqrt_iswap": SQRT_ISWAP}

# The paper's sqrt(iSWAP) A gate, (θ1, θ2) per gadget in time order: the exact chain nearest
# its 8-digit angles, kept as the reference (τ = 2.687; the free compile reaches 2.511).
_SQRT_ISWAP_EULERS = ((-1.4451291482376805, -0.09519096998959584),
                      (-0.8550641169509537, 0.5801504325823696),
                      (-0.5927406115207456, 0.07041775718392888))


def _published_sqrt_iswap() -> SynthesisResult:
    fd = _f_parts()["fd"][0].gates
    circuit = Circuit(2, fd + (Gate("rz", np.pi / 4),) + fd
                      + _gadgets([(1, None)] * 3, _SQRT_ISWAP_EULERS))
    return _phase_result(circuit, "fd+fd", (np.pi / 4, np.pi / 2, np.pi / 4), np.pi / 4, 0.0)


def named_gate(name: str, phi: Optional[float] = None) -> SynthesisResult:
    """Compile cz, swap, iswap, sqrt_iswap, uzz or upsiplus up to a reported
    global phase; phi is the angle of uzz (required) and of upsiplus only.
    sqrt_iswap is the reference construction (see _SQRT_ISWAP_EULERS)."""
    if not isinstance(name, str):
        raise ValueError(f"unknown gate {name!r}")
    phi = None if phi is None else require_real(phi, "phi")
    name = name.lower()
    if phi is not None and name in NAMED_TARGETS:  # cz, swap, iswap, sqrt_iswap
        raise ValueError(f"phi applies to uzz and upsiplus only, not to {name}")
    if name in NAMED_TARGETS:
        g = NAMED_TARGETS[name]
    elif name == "uzz":
        if phi is None:
            raise ValueError("uzz needs --phi")
        g = uzz(phi)
    elif name == "upsiplus":
        g = u_psi_plus(phi if phi is not None else -2 * np.pi / np.sqrt(3))
    else:
        raise ValueError(f"unknown gate {name!r}")
    if name == "sqrt_iswap":
        res, alpha = _published_sqrt_iswap(), -np.pi / 4
    else:
        phases = _pi_u1_phases(g)
        alpha = phases["psi-"]
        res = compile_two_qubit(wrap_pi(phases["00"] - alpha),
                                wrap_pi(phases["psi+"] - alpha),
                                wrap_pi(phases["11"] - alpha))
    res.global_phase = float(wrap_pi(alpha))
    res.target = g
    return res


def _pi_u1_phases(g: np.ndarray) -> dict[str, float]:
    psi_p = np.array([0, 1, 1, 0]) / np.sqrt(2)
    psi_m = np.array([0, 1, -1, 0]) / np.sqrt(2)
    vals = {"00": g[0, 0], "11": g[3, 3],
            "psi+": psi_p @ g @ psi_p, "psi-": psi_m @ g @ psi_m}
    for key, v in vals.items():
        if not abs(abs(v) - 1) <= 1e-9:  # NaN: rejected
            raise ValueError("target is not PI and U(1)-invariant "
                             f"(|{key}| component = {abs(v):.3f})")
    if not abs(psi_p @ g @ psi_m) <= 1e-9:
        raise ValueError("target mixes the singlet with the triplet")
    return {k: float(np.angle(v)) for k, v in vals.items()}


def qubit_osc_swap() -> SynthesisResult:
    """Two-qubit circuit moving any triplet state into oscillator levels:
    |j=1,m⟩⊗|0⟩ → |11⟩⊗|m+1⟩ with unit amplitude."""
    fd, v1 = _f_parts()["fd"]
    target_block = np.array([[0, -1], [1, 0]], dtype=complex)  # -iσ_y
    u_a = target_block @ v1.conj().T
    circ = simplify(Circuit(2, fd.gates + a_gate(u_a).gates))
    bu = apply_circuit(circ, 2)
    defect = max(
        np.abs(bu.blocks[SectorIndex(2, 1, 2)] - target_block).max(),
        np.abs(bu.blocks[SectorIndex(2, 2, 2)] - F_CHARGE2).max(),
        np.abs(bu.blocks[SectorIndex(2, 0, 2)] - 1).max())
    return SynthesisResult(circ, interaction_time(circ), "swap-qubit-osc",
                           {}, float(defect), 0.0, F_CHARGE2)


def ghz_circuit() -> Circuit:
    """Maps |00⟩⊗|0⟩ to (|00⟩+|11⟩)/√2 ⊗ |0⟩ up to a global phase.

    exp(-iπ/4·XX)|00⟩ is GHZ up to a z rotation; XX evolution is the
    compiled ZZ evolution conjugated by a global π/2 rotation about y,
    which itself is an x rotation sandwiched by z rotations.
    """
    # e^{-iα}·U_ZZ(π/4) has singlet phase 0 and phases (-π/2, 0, -π/2)
    zz = compile_two_qubit(-np.pi / 2, 0.0, -np.pi / 2).circuit
    ry = (Gate("rz", -np.pi / 2), Gate("rx", np.pi / 2), Gate("rz", np.pi / 2))
    ry_dag = (Gate("rz", -np.pi / 2), Gate("rx", -np.pi / 2), Gate("rz", np.pi / 2))
    gates = ry_dag + zz.gates + ry + (Gate("rz", np.pi / 4),)
    return simplify(Circuit(2, gates))

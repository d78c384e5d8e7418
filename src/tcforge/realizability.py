"""Decision procedures for realizability under the coupling + z-field gate set.

Three constraint families decide whether a target is reachable:

* qubit-level PI U(1)-invariant unitaries: the phase of each lowest-weight
  level must be affine in the spin, φ_{j,-j} ≡ α + jβ (mod 2π);
* diagonal unitaries: the same affine condition on the m ≤ 0 phases;
* joint qubit-oscillator block targets: partnered sectors must carry the
  same unitary up to the phase e^{i(j'-j)θ_z}, and each block determinant
  must equal the trace of J_z in that sector times θ_z plus dim·α (mod 2π).

All four checks decide through one solver of the congruence system
θ_i ≡ c_i·θ_z + d_i·α (mod 2π): the affine checks are the case d = 1 with β
in the role of θ_z.  Phases are first reduced mod 2π, and the finitely many
integer winding numbers compatible with the windows θ_z ∈ [-2π, 2π),
α ∈ [-π, π) are enumerated exactly, as one array over every candidate and
equation.  The joint-space check runs on a sector table cached per
(n, q_max).  `BlockTarget` keeps every block in one (sectors, D, D) stack,
padded with the identity to the largest block dim D: one B†B − I checks
unitarity, one batched det gives the determinant phases, and the partner
test slices the partners' blocks out of it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Number
from typing import Optional

import numpy as np

from .dynamics import BlockUnitary
from .operators import charge_vector
from .sectors import (SectorIndex, accidental_pairs, enumerate_sectors, require_finite,
                      require_int, require_tol, require_type, spins, wrap_pi)

# identifiers used in violation reports
AFFINE_LOWEST_WEIGHT = "lowest-weight-phase-affine"
PARTNER_EQUALITY = "partner-block-equality"
DETERMINANT_PHASE = "determinant-phase"


@lru_cache(maxsize=None)
def _sector_table(n: int, q_max: int):
    """(sectors, c, d, pairs) for q ≤ q_max: the sectors in enumeration
    order, their J_z traces Tr π_{q,j}(J_z) as floats, their dims, and one
    (a, b, corner, jgap) entry per accidental pair, where a and b are the
    partners' places in the enumeration, corner slices their shared block
    out of a `BlockTarget` stack slice and jgap = j_a - j_b.  The arrays
    are read-only."""
    sectors = enumerate_sectors(n, q_max)
    c = np.array([float(charge_vector(idx, "jz")) for idx in sectors])
    d = np.array([idx.dim for idx in sectors])
    c.setflags(write=False)
    d.setflags(write=False)
    place = {idx: i for i, idx in enumerate(sectors)}
    pairs = tuple((place[a], place[b], slice(int(d.max()) - a.dim, None),
                   (a.jj - b.jj) // 2) for a, b in accidental_pairs(n, q_max))
    return sectors, c, d, pairs


@lru_cache(maxsize=None)
def _levels(n: int) -> frozenset[tuple[int, int]]:
    """Every (2j, 2m) level of n qubits."""
    return frozenset((jj, mm) for jj in spins(n) for mm in range(-jj, jj + 1, 2))


@dataclass(frozen=True)
class PiU1Target:
    """Qubit-level target: one phase per (2j, 2m) level."""

    n: int
    phases: dict[tuple[int, int], float]

    def __post_init__(self):
        require_int(self.n, "n", 1)
        if self.phases.keys() != _levels(self.n):
            raise ValueError("phase map must cover every (2j, 2m) level")
        require_finite(list(self.phases.values()), "level phases")


@dataclass(frozen=True)
class BlockTarget:
    """Joint-space target: one unitary per sector with q ≤ q_max."""

    n: int
    q_max: int
    blocks: dict[SectorIndex, np.ndarray]
    # one complex (sectors, D, D) stack in _sector_table order, D the largest
    # block dim: each block fills the bottom-right corner of its slice and
    # the identity the rest, so padding leaves unitarity and det unchanged
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_int(self.n, "n")
        require_int(self.q_max, "q_max")
        sectors, _, d, _ = _sector_table(self.n, self.q_max)
        top = int(d.max())
        stack = np.tile(np.eye(top, dtype=complex), (len(sectors), 1, 1))
        for idx, dim, slot in zip(sectors, d.tolist(), stack):
            b = self.blocks.get(idx)
            if b is None:
                raise ValueError(f"missing block for {idx}")
            if not isinstance(b, np.ndarray) or b.dtype.kind not in "iufc":
                raise ValueError(f"block for {idx} is not a numeric array")
            if b.shape != (dim, dim):
                raise ValueError(f"block for {idx} has shape {b.shape}")
            slot[top - dim:, top - dim:] = b
        # unitary blocks give Σ|b|² = size / D; past size (or inf, NaN), zero each
        # block with an entry outside the unit square: it fails, and B†B stays finite
        if not np.vdot(stack, stack).real <= stack.size:
            stack[~(np.abs(stack.view(float)) <= 1 + 1e-10).all(axis=(1, 2))] = 0
        defect = np.abs(stack.conj().swapaxes(1, 2) @ stack - np.eye(top)).max(axis=(1, 2))
        bad = np.flatnonzero(~(defect <= 1e-10))  # NaN fails
        if len(bad):
            raise ValueError(f"block for {sectors[bad[0]]} is not unitary")
        object.__setattr__(self, "_stack", stack)


@dataclass
class RealizabilityVerdict:
    realizable: bool
    alpha: Optional[float] = None
    beta: Optional[float] = None          # β or θ_z, depending on the check
    violation: Optional[dict] = None
    max_residual: float = 0.0

    def to_json_dict(self) -> dict:
        return {"realizable": self.realizable, "alpha": self.alpha,
                "beta_or_theta_z": self.beta, "violation": self.violation,
                "max_residual": self.max_residual}


def constraint_gap(n: int) -> int:
    """Dimension gap between all PI U(1)-invariant unitaries and the
    realizable subgroup: the number of affine-constrained lowest-weight
    phases minus the two fit parameters."""
    require_int(n, "n", 1)
    return max(0, len(spins(n)) - 2)


def _residuals(c, d, theta, theta_z, alpha) -> np.ndarray:
    """|c·θ_z + d·α − θ| mod 2π, one row per (θ_z, α) candidate."""
    return np.abs(wrap_pi(c * theta_z[:, None] + d * alpha[:, None] - theta))


def _solve_phase_system(c, d, theta, tol: float, theta_z_candidates=None):
    """Solve θ ≡ c·θ_z + d·α (mod 2π) with θ_z ∈ [-2π, 2π), α ∈ [-π, π).

    Returns (θ_z, α, worst residual) of the first candidate that fits every
    equation, or (None, None, r) with r the smallest worst residual over
    all candidates.  Candidates come either from a θ_z list, in its order
    (θ_z = 0 alone when no two rows are independent), or from exhaustive
    winding enumeration on two independent low sectors.  θ is reduced mod 2π
    first, so that the winding ranges cover it.
    """
    theta = theta - 2 * np.pi * np.round(theta / (2 * np.pi))  # exact on |θ| ≤ π
    if theta_z_candidates is None:
        r = np.argsort(np.abs(c) + d, kind="stable")
        det = c[r, None] * d[r] - c[r] * d[r, None]
        first = np.flatnonzero(np.triu(np.abs(det) > 1e-9, 1))
        if not len(first):
            theta_z_candidates = np.zeros(1)  # all rows parallel: pin θ_z = 0
        else:
            a, b = divmod(int(first[0]), len(r))
            i, k, det = r[a], r[b], det[a, b]
            wi_max = int(np.ceil(abs(c[i]) + d[i] / 2)) + 1
            wk_max = int(np.ceil(abs(c[k]) + d[k] / 2)) + 1
            ri = (theta[i] + 2 * np.pi * np.arange(-wi_max, wi_max + 1))[:, None]
            rk = theta[k] + 2 * np.pi * np.arange(-wk_max, wk_max + 1)
            tz = (d[k] * ri - d[i] * rk) / det
            al = (-c[k] * ri + c[i] * rk) / det
    if theta_z_candidates is not None:
        i = int(np.argmin(d))
        w_max = int(np.ceil(abs(c[i]) + d[i] / 2)) + 2
        tz, w = np.meshgrid(theta_z_candidates, np.arange(-w_max, w_max + 1),
                            indexing="ij")
        al = (theta[i] - c[i] * tz + 2 * np.pi * w) / d[i]
    tz, al = tz.ravel(), al.ravel()
    keep = (-2 * np.pi <= tz) & (tz < 2 * np.pi) & (-np.pi <= al) & (al < np.pi)
    tz, al = tz[keep], al[keep]
    worst = _residuals(c, d, theta, tz, al).max(axis=1)  # NaN propagates, never ≤ tol
    hit = np.flatnonzero(worst <= tol)
    if not len(hit):
        return None, None, float(worst.min(initial=np.inf))
    return float(tz[hit[0]]), float(al[hit[0]]), float(worst[hit[0]])


def _affine_verdict(c, theta, levels, tol: float) -> RealizabilityVerdict:
    """Fit θ_i ≡ α + c_i·β (mod 2π) on coefficients c spaced by 1, trying
    the β allowed by the first two rows in order of |β|; a rejection reports
    the smallest worst residual over those β."""
    dtheta = float(wrap_pi(theta[1] - theta[0])) if len(theta) > 1 else 0.0
    betas = dtheta + 2 * np.pi * np.arange(-2, 3)
    betas = betas[(-2 * np.pi <= betas) & (betas < 2 * np.pi)]
    betas = betas[np.argsort(np.abs(betas), kind="stable")]
    beta, alpha, resid = _solve_phase_system(np.asarray(c, dtype=float),
                                             np.ones(len(c)), theta, tol, betas)
    if beta is not None:
        return RealizabilityVerdict(True, alpha, beta, max_residual=resid)
    return RealizabilityVerdict(
        False, violation={"constraint": AFFINE_LOWEST_WEIGHT, "levels": levels,
                          "residual": resid},
        max_residual=resid)


def check_pi_u1(target: PiU1Target, tol: float = 1e-8) -> RealizabilityVerdict:
    """Realizable iff the lowest-weight phases fit φ_{j,-j} ≡ α + jβ."""
    require_tol(tol, "tol")
    jjs = spins(target.n)[::-1]
    return _affine_verdict([jj / 2 for jj in jjs],
                           np.array([target.phases[(jj, -jj)] for jj in jjs]),
                           [[jj, -jj] for jj in jjs], tol)


def check_diagonal(n: int, phases: dict[int, float],
                   tol: float = 1e-8) -> RealizabilityVerdict:
    """Diagonal targets keyed by 2m: φ_m ≡ α + mβ required for m ≤ 0 only."""
    require_int(n, "n", 1)
    require_tol(tol, "tol")
    mms = list(range(-n, n + 1, 2))
    if set(phases) != set(mms):
        raise ValueError("need one phase per 2m in {-n..n}")
    require_finite(list(phases.values()), "diagonal phases")
    neg = [mm for mm in mms if mm <= 0]
    return _affine_verdict([mm / 2 for mm in neg],
                           np.array([phases[mm] for mm in neg], dtype=float),
                           [[mm] for mm in neg], tol)


def _phase_verdict(c, d, theta, sectors, tol: float,
                   theta_z_candidates=None) -> RealizabilityVerdict:
    """Verdict on the determinant-phase system: its solution, or, if none
    exists, the first sector within tol of the worst at θ_z = α = 0."""
    tz, al, worst = _solve_phase_system(c, d, theta, tol, theta_z_candidates)
    if tz is None:
        resid = _residuals(c, d, theta, np.zeros(1), np.zeros(1))[0]
        worst = float(resid.max())
        idx = sectors[int(np.argmax(resid >= worst - tol))]
        return RealizabilityVerdict(
            False, violation={"constraint": DETERMINANT_PHASE,
                              "sectors": None if worst == 0
                              else [idx.q, idx.jj],
                              "residual": worst},
            max_residual=worst)
    return RealizabilityVerdict(True, al, tz, max_residual=worst)


def _pair_phase_candidates(v_unfilled, v_filled, jgap: int):
    """θ_z candidates from v_{q,j} = e^{-i·jgap·θ_z} v_{q',j'}."""
    tr = np.trace(v_filled.conj().T @ v_unfilled)
    if abs(tr) < 1e-6:
        flat = np.argmax(np.abs(v_filled))
        ratio = v_unfilled.flat[flat] / v_filled.flat[flat]
    else:
        ratio = tr
    phase = float(np.angle(ratio))  # = -jgap·θ_z mod 2π
    tz = -(phase + 2 * np.pi * np.arange(-2 * jgap - 1, 2 * jgap + 2)) / jgap
    return tz[(-2 * np.pi <= tz) & (tz < 2 * np.pi)]


def check_block_target(target: BlockTarget,
                       tol: float = 1e-8) -> RealizabilityVerdict:
    """Full joint-space decision: partner equality plus determinant phases."""
    require_type(target, BlockTarget, "target")
    require_tol(tol, "tol")
    sectors, c, d, pairs = _sector_table(target.n, target.q_max)
    s = target._stack
    tz = None
    if pairs:
        a, b, k, jgap = pairs[0]
        tz = _pair_phase_candidates(s[a, k, k], s[b, k, k], jgap)
        # every candidate must satisfy every pair entrywise: worst entry
        # deviation as one (candidates, pairs) array
        dev = np.stack([np.abs(s[a, k, k] - np.exp(-1j * jgap * tz)[:, None, None]
                               * s[b, k, k]).max(axis=(1, 2))
                        for a, b, k, jgap in pairs], axis=1)
        worst = dev.max(axis=1)
        if not (worst <= tol).any():
            best = int(np.argmax(worst <= worst.min() + tol))  # first within tol
            i, j, _, _ = pairs[int(np.argmax(dev[best] >= worst[best] - tol))]
            a, b = sectors[i], sectors[j]
            resid = float(worst[best])
            return RealizabilityVerdict(
                False, violation={"constraint": PARTNER_EQUALITY,
                                  "sectors": [a.q, a.jj, b.q, b.jj],
                                  "residual": resid},
                max_residual=resid)
        tz = tz[worst <= tol]
    return _phase_verdict(c, d, np.angle(np.linalg.det(s)), sectors, tol, tz)


def check_symmetric_phase_constraint(n: int, q_max: int, theta_q: list[float],
                                     tol: float = 1e-8) -> RealizabilityVerdict:
    """Determinant phases restricted to the symmetric subspace:
    θ_q ≡ (q+1)[(q-n)θ_z/2 + α] for q ≤ n and θ_q ≡ (n+1)α for q > n."""
    require_int(n, "n", 1)
    require_int(q_max, "q_max", 0)
    require_tol(tol, "tol")
    if len(theta_q) != q_max + 1:
        raise ValueError(f"need θ_q for q = 0..{q_max}")
    theta = require_finite(theta_q, "θ_q")
    sectors, c, d, _ = _sector_table(n, q_max)
    top = [i for i, idx in enumerate(sectors) if idx.jj == n]  # one per q
    return _phase_verdict(c[top], d[top], theta, [sectors[i] for i in top], tol)


def state_convertible(n: int, psi: dict[tuple[int, int], complex],
                      phi: dict[tuple[int, int], complex],
                      tol: float = 1e-8) -> bool:
    """Symmetric-subspace states are interconvertible iff their per-charge
    weights agree.  States map (2m, k) -> amplitude."""
    require_int(n, "n", 1)
    require_tol(tol, "tol")
    def weights(state):
        total = 0.0
        per_q: dict[int, float] = {}
        for (mm, k), amp in state.items():
            require_int(mm, "2m")
            require_int(k, "k", 0)
            if not -n <= mm <= n or (mm ^ n) & 1:
                raise ValueError(f"bad symmetric-state label (2m={mm}, k={k})")
            if (isinstance(amp, bool) or not isinstance(amp, Number)
                    or not cmath.isfinite(amp)):
                raise ValueError(f"non-finite amplitude {amp!r} at (2m={mm}, k={k})")
            w = abs(amp) ** 2
            q = k + (mm + n) // 2
            per_q[q] = per_q.get(q, 0.0) + w
            total += w
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"state not normalized (norm² = {total:.6f})")
        return per_q

    wa, wb = weights(psi), weights(phi)
    for q in set(wa) | set(wb):
        if not abs(wa.get(q, 0.0) - wb.get(q, 0.0)) <= tol:
            return False
    return True


def _pi_on(n: int, mm: int) -> PiU1Target:
    """A π phase on the level (2j, 2m) = (n, mm) and 0 on every other."""
    return PiU1Target(n, {lvl: np.pi if lvl == (n, mm) else 0.0
                          for lvl in sorted(_levels(n))})


def cz_controlled_target(n: int) -> PiU1Target:
    """CZ on n qubits controlled by n-1 of them: a π phase on |1...1⟩."""
    return _pi_on(n, -n)


def anti_cz_target(n: int) -> PiU1Target:
    """The conjugated variant: a π phase on |0...0⟩ instead."""
    return _pi_on(n, n)


def block_target_from_unitary(bu: BlockUnitary) -> BlockTarget:
    """Adapt a charge-backend BlockUnitary into a decision-ready target."""
    require_type(bu, BlockUnitary, "bu")
    if bu.backend != "charge":
        raise ValueError("need a charge-backend block unitary")
    return BlockTarget(bu.n, bu.q_max, dict(bu.blocks))

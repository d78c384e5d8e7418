"""Decision procedures for realizability under the coupling + z-field gate set.

Three constraint families decide whether a target is reachable:

* qubit-level PI U(1)-invariant unitaries: the phase of each lowest-weight
  level must be affine in the spin, φ_{j,-j} ≡ α + jβ (mod 2π);
* diagonal unitaries: the same affine condition on the m ≤ 0 phases;
* joint qubit-oscillator block targets: partnered sectors must carry the
  same unitary up to the phase e^{i(j'-j)θ_z}, and each block determinant
  must equal the trace of J_z in that sector times θ_z plus dim·α (mod 2π).

All congruences are solved exactly by enumerating the finitely many integer
winding numbers compatible with the parameter windows θ_z ∈ [-2π, 2π),
α ∈ [-π, π), β ∈ [-2π, 2π).  The joint-space check runs on arrays over a
sector table cached per (n, q_max): one stacked det and unitarity test per
block dimension, and one pass over every winding candidate and sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .operators import charge_vector
from .sectors import SectorIndex, accidental_pairs, enumerate_sectors, j_min2
from .synthesis import wrap_pi

# identifiers used in violation reports
AFFINE_LOWEST_WEIGHT = "lowest-weight-phase-affine"
PARTNER_EQUALITY = "partner-block-equality"
DETERMINANT_PHASE = "determinant-phase"


def _require_finite(phases, what: str) -> None:
    if not np.isfinite(np.asarray(phases, dtype=float)).all():
        raise ValueError(f"{what} must be finite")


@lru_cache(maxsize=None)
def _sector_table(n: int, q_max: int):
    """(sectors, c, d, groups) for q ≤ q_max: the sectors in enumeration
    order, their J_z traces Tr π_{q,j}(J_z) as floats, their dims, and one
    (dim, positions) entry per block dimension.  The arrays are read-only."""
    sectors = enumerate_sectors(n, q_max)
    c = np.array([float(charge_vector(idx, "jz")) for idx in sectors])
    d = np.array([idx.dim for idx in sectors])
    groups = tuple((int(k), np.flatnonzero(d == k)) for k in np.unique(d))
    for arr in (c, d, *(pos for _, pos in groups)):
        arr.setflags(write=False)
    return sectors, c, d, groups


@dataclass(frozen=True)
class PiU1Target:
    """Qubit-level target: one phase per (2j, 2m) level."""

    n: int
    phases: dict[tuple[int, int], float]

    def __post_init__(self):
        want = {(jj, mm) for jj in range(j_min2(self.n), self.n + 1, 2)
                for mm in range(-jj, jj + 1, 2)}
        if set(self.phases) != want:
            raise ValueError("phase map must cover every (2j, 2m) level")
        _require_finite(list(self.phases.values()), "level phases")


@dataclass(frozen=True)
class BlockTarget:
    """Joint-space target: one unitary per sector with q ≤ q_max."""

    n: int
    q_max: int
    blocks: dict[SectorIndex, np.ndarray]

    def __post_init__(self):
        sectors, _, d, groups = _sector_table(self.n, self.q_max)
        blocks = []
        for idx, dim in zip(sectors, d.tolist()):
            if idx not in self.blocks:
                raise ValueError(f"missing block for {idx}")
            blocks.append(self.blocks[idx])
            if blocks[-1].shape != (dim, dim):
                raise ValueError(f"block for {idx} has shape {blocks[-1].shape}")
        bad = []
        for dim, pos in groups:
            b = np.stack([blocks[i] for i in pos])
            defect = np.abs(b.conj().swapaxes(1, 2) @ b - np.eye(dim)).max(axis=(1, 2))
            bad.extend(pos[~(defect <= 1e-10)])  # NaN fails
        if bad:
            raise ValueError(f"block for {sectors[min(bad)]} is not unitary")


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
    n_spins = (n - j_min2(n)) // 2 + 1
    return max(0, n_spins - 2)


def _fit_affine(coeffs: list[float], values: list[float], tol: float):
    """Solve values_i ≡ alpha + coeffs_i * beta (mod 2π) with
    β ∈ [-2π, 2π).  Returns (alpha, beta, residual) or (None, None, worst)."""
    order = np.argsort(coeffs)
    c = np.asarray(coeffs, dtype=float)[order]
    v = wrap_pi(np.asarray(values, dtype=float)[order])
    if len(c) == 1:
        return float(wrap_pi(v[0])), 0.0, 0.0
    dc = c[1] - c[0]
    base = (v[1] - v[0]) / dc
    betas = [base + 2 * np.pi * w / dc for w in range(-2, 3)]
    betas = sorted((b for b in betas if -2 * np.pi <= b < 2 * np.pi), key=abs)
    worst = np.inf
    for beta in betas:
        alpha = float(wrap_pi(v[0] - c[0] * beta))
        resid = float(np.abs(wrap_pi(v - alpha - c * beta)).max())
        worst = min(worst, resid)
        if resid <= tol:
            return alpha, float(beta), resid
    return None, None, worst


def check_pi_u1(target: PiU1Target, tol: float = 1e-8) -> RealizabilityVerdict:
    """Realizable iff the lowest-weight phases fit φ_{j,-j} ≡ α + jβ."""
    jjs = list(range(j_min2(target.n), target.n + 1, 2))
    coeffs = [jj / 2 for jj in jjs]
    values = [target.phases[(jj, -jj)] for jj in jjs]
    alpha, beta, resid = _fit_affine(coeffs, values, tol)
    if alpha is not None:
        return RealizabilityVerdict(True, alpha, beta, max_residual=resid)
    return RealizabilityVerdict(
        False, violation={"constraint": AFFINE_LOWEST_WEIGHT,
                          "levels": [[jj, -jj] for jj in jjs],
                          "residual": resid},
        max_residual=resid)


def check_diagonal(n: int, phases: dict[int, float],
                   tol: float = 1e-8) -> RealizabilityVerdict:
    """Diagonal targets keyed by 2m: φ_m ≡ α + mβ required for m ≤ 0 only."""
    mms = list(range(-n, n + 1, 2))
    if set(phases) != set(mms):
        raise ValueError("need one phase per 2m in {-n..n}")
    _require_finite(list(phases.values()), "diagonal phases")
    neg = [mm for mm in mms if mm <= 0]
    alpha, beta, resid = _fit_affine([mm / 2 for mm in neg],
                                     [phases[mm] for mm in neg], tol)
    if alpha is not None:
        return RealizabilityVerdict(True, alpha, beta, max_residual=resid)
    return RealizabilityVerdict(
        False, violation={"constraint": AFFINE_LOWEST_WEIGHT,
                          "levels": [[mm] for mm in neg], "residual": resid},
        max_residual=resid)


def _det_equations(target: BlockTarget):
    """Arrays (c, d, θ) over the sectors for θ_det ≡ c·θ_z + d·α (mod 2π)."""
    sectors, c, d, groups = _sector_table(target.n, target.q_max)
    theta = np.empty(len(sectors))
    for _, pos in groups:
        blocks = np.stack([target.blocks[sectors[i]] for i in pos])
        theta[pos] = np.angle(np.linalg.det(blocks))
    return c, d, theta


def _residuals(c, d, theta, theta_z, alpha) -> np.ndarray:
    """|c·θ_z + d·α − θ| mod 2π, one row per (θ_z, α) candidate."""
    return np.abs(wrap_pi(c * theta_z[:, None] + d * alpha[:, None] - theta))


def _solve_phase_system(c, d, theta, tol: float, theta_z_candidates=None):
    """Find θ_z ∈ [-2π, 2π), α ∈ [-π, π) satisfying all equations, as
    (θ_z, α, worst residual), or None.

    Candidates come either from a supplied θ_z list (partner constraints)
    or from exhaustive winding enumeration on two low sectors; all are
    checked at once, and the first that fits every sector wins.
    """
    if theta_z_candidates is not None:
        i = int(np.argmin(d))
        w_max = int(np.ceil(abs(c[i]) + d[i] / 2)) + 2
        tz, w = np.meshgrid(theta_z_candidates, np.arange(-w_max, w_max + 1),
                            indexing="ij")
        al = (theta[i] - c[i] * tz + 2 * np.pi * w) / d[i]
    else:
        r = np.argsort(np.abs(c) + d, kind="stable")
        det = c[r, None] * d[r] - c[r] * d[r, None]
        first = np.flatnonzero(np.triu(np.abs(det) > 1e-9, 1))
        if not len(first):
            # all rows parallel; pin θ_z = 0 and fit α from the smallest block
            i = r[0]
            al = (theta[i] + 2 * np.pi * np.arange(-(d[i] + 2), d[i] + 3)) / d[i]
            tz = np.zeros_like(al)
        else:
            a, b = divmod(int(first[0]), len(r))
            i, k, det = r[a], r[b], det[a, b]
            wi_max = int(np.ceil(abs(c[i]) + d[i] / 2)) + 1
            wk_max = int(np.ceil(abs(c[k]) + d[k] / 2)) + 1
            ri = (theta[i] + 2 * np.pi * np.arange(-wi_max, wi_max + 1))[:, None]
            rk = theta[k] + 2 * np.pi * np.arange(-wk_max, wk_max + 1)
            tz = (d[k] * ri - d[i] * rk) / det
            al = (-c[k] * ri + c[i] * rk) / det
    tz, al = tz.ravel(), al.ravel()
    keep = (-2 * np.pi <= tz) & (tz < 2 * np.pi) & (-np.pi <= al) & (al < np.pi)
    tz, al = tz[keep], al[keep]
    worst = _residuals(c, d, theta, tz, al).max(axis=1)  # NaN propagates, never ≤ tol
    hit = np.flatnonzero(worst <= tol)
    if not len(hit):
        return None
    return float(tz[hit[0]]), float(al[hit[0]]), float(worst[hit[0]])


def _phase_verdict(c, d, theta, sectors, tol: float,
                   theta_z_candidates=None) -> RealizabilityVerdict:
    """Verdict on the determinant-phase system: its solution, or the worst
    sector at θ_z = α = 0 when none exists."""
    sol = _solve_phase_system(c, d, theta, tol, theta_z_candidates)
    if sol is None:
        resid = _residuals(c, d, theta, np.zeros(1), np.zeros(1))[0]
        worst = float(resid.max())
        idx = sectors[int(np.argmax(resid))]
        return RealizabilityVerdict(
            False, violation={"constraint": DETERMINANT_PHASE,
                              "sectors": None if worst == 0
                              else [idx.q, idx.jj],
                              "residual": worst},
            max_residual=worst)
    tz, al, worst = sol
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
    out = []
    for w in range(-2 * jgap - 1, 2 * jgap + 2):
        tz = -(phase + 2 * np.pi * w) / jgap
        if -2 * np.pi <= tz < 2 * np.pi:
            out.append(tz)
    return out


def check_block_target(target: BlockTarget,
                       tol: float = 1e-8) -> RealizabilityVerdict:
    """Full joint-space decision: partner equality plus determinant phases."""
    pairs = accidental_pairs(target.n, target.q_max)

    tz_candidates = None
    if pairs:
        idx, p = pairs[0]
        jgap = (idx.jj - p.jj) // 2
        tz_candidates = _pair_phase_candidates(target.blocks[idx],
                                               target.blocks[p], jgap)
        # every candidate must satisfy every pair entrywise
        surviving = []
        best_fail = (np.inf, pairs[0])
        for tz in tz_candidates:
            worst, worst_at = 0.0, pairs[0]
            for a, b in pairs:
                jgap = (a.jj - b.jj) // 2
                dev = float(np.abs(target.blocks[a]
                                   - np.exp(-1j * jgap * tz)
                                   * target.blocks[b]).max())
                if dev > worst:
                    worst, worst_at = dev, (a, b)
            if worst <= tol:
                surviving.append(tz)
            elif worst < best_fail[0]:
                best_fail = (worst, worst_at)
        if not surviving:
            a, b = best_fail[1]
            return RealizabilityVerdict(
                False, violation={"constraint": PARTNER_EQUALITY,
                                  "sectors": [a.q, a.jj, b.q, b.jj],
                                  "residual": best_fail[0]},
                max_residual=best_fail[0])
        tz_candidates = surviving

    return _phase_verdict(*_det_equations(target),
                          enumerate_sectors(target.n, target.q_max), tol,
                          tz_candidates)


def check_symmetric_phase_constraint(n: int, q_max: int, theta_q: list[float],
                                     tol: float = 1e-8) -> RealizabilityVerdict:
    """Determinant phases restricted to the symmetric subspace:
    θ_q ≡ (q+1)[(q-n)θ_z/2 + α] for q ≤ n and θ_q ≡ (n+1)α for q > n."""
    if len(theta_q) != q_max + 1:
        raise ValueError(f"need θ_q for q = 0..{q_max}")
    _require_finite(theta_q, "θ_q")
    q = np.arange(q_max + 1)
    d = np.minimum(q, n) + 1
    c = np.where(q <= n, d * (q - n) / 2, 0.0)
    return _phase_verdict(c, d, np.asarray(theta_q, dtype=float),
                          [SectorIndex(n, int(x), n) for x in q], tol)


def state_convertible(n: int, psi: dict[tuple[int, int], complex],
                      phi: dict[tuple[int, int], complex],
                      tol: float = 1e-8) -> bool:
    """Symmetric-subspace states are interconvertible iff their per-charge
    weights agree.  States map (2m, k) -> amplitude."""
    def weights(state):
        total = 0.0
        per_q: dict[int, float] = {}
        for (mm, k), amp in state.items():
            if not -n <= mm <= n or (mm ^ n) & 1 or k < 0:
                raise ValueError(f"bad symmetric-state label (2m={mm}, k={k})")
            if not np.isfinite(amp):
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


def cz_controlled_target(n: int) -> PiU1Target:
    """CZ on n qubits controlled by n-1 of them: a π phase on |1...1⟩."""
    phases = {(jj, mm): 0.0 for jj in range(j_min2(n), n + 1, 2)
              for mm in range(-jj, jj + 1, 2)}
    phases[(n, -n)] = np.pi
    return PiU1Target(n, phases)


def anti_cz_target(n: int) -> PiU1Target:
    """The conjugated variant: a π phase on |0...0⟩ instead."""
    phases = {(jj, mm): 0.0 for jj in range(j_min2(n), n + 1, 2)
              for mm in range(-jj, jj + 1, 2)}
    phases[(n, n)] = np.pi
    return PiU1Target(n, phases)


def block_target_from_unitary(bu) -> BlockTarget:
    """Adapt a charge-backend BlockUnitary into a decision-ready target."""
    if bu.backend != "charge":
        raise ValueError("need a charge-backend block unitary")
    return BlockTarget(bu.n, bu.q_max, dict(bu.blocks))

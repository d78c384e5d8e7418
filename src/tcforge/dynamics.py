"""Exact circuit simulation in the conserved-charge block picture.

Gates are e^{-iHt}: a coupling pulse tc(r) is exp(-i r (J+a + J-a†)) with
dimensionless r = g·t, and rz/rx(θ) are exp(-iθ J_z) / exp(-iθ J_x).

Every circuit evolves on per-j towers span{|j,m⟩⊗|k⟩ : k ≤ k_max}, each held
r-major as [r, s, cols], r = j - m, over the charge diagonals s = k - r + 2j.
A coupling pulse conserves s, and its (2j+1)-square diagonal blocks are real
symmetric: a pulse v diag(e^{-irw}) vᵀ is two real stacked products of their
cached eigenvectors on float views of the complex run.  rz is a phase on r.
Each run of tc and rz gates between rx gates is multiplied out in place on
that [s, r, r] stack from its first tc on, with one exp for all its phases
of each kind.  rx conserves k and acts on r of the tower [k, r, cols], a view
of the state, so no product moves data.  One loop, _towers, yields each
spin's cutoffs and gates (none on the singlet, where each is 1): its
columns of charge q ≤ q_max lie on the diagonals s ≤ k0, and k_max keeps
just those exact.  Only identity columns evolve: "jtower" those on s ≤ k0,
evolve_vacuum_state the 2j+1 at k = 0, then weighted by the state; the
"charge" backend is the rx-free case, its blocks views of the first run.

All interaction times are reported in units of 2π/g.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import operators as ops
from .qubits import assemble_pi, jm_basis
from .sectors import (SectorIndex, enumerate_sectors, multiplicity, require_finite,
                      require_int, require_real, require_type, spins)

GATE_KINDS = ("tc", "rz", "rx")


@dataclass(frozen=True)
class Gate:
    """One native gate; param is r for tc, the angle θ for rz/rx.

    Angles are physically 4π-periodic (half-integer m), so [-2π, 2π) is a
    fundamental domain; params are not wrapped, only stored as float.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "param",
                           require_real(self.param, f"{self.kind} parameter"))


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        n, gates = self.n, tuple(self.gates)
        require_int(n, "circuit n", 1)
        for g in gates:
            if not isinstance(g, Gate):
                raise ValueError(f"circuit gates must be Gate objects, got {g!r}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "gates", gates)

    def has_rx(self) -> bool:
        return any(g.kind == "rx" for g in self.gates)

    @cached_property
    def _rx_runs(self) -> int:  # counted once per circuit: see tower_k_max
        kinds = [g.kind for g in self.gates if g.kind != "rz"]
        return sum(a == "rx" and b == "tc" for a, b in zip(kinds, kinds[1:]))

    def total_tc_time(self) -> float:
        """Raw Σ|r| over coupling pulses (units of 1/g)."""
        return sum(abs(g.param) for g in self.gates if g.kind == "tc")

    def to_json(self) -> str:
        payload = {"n": self.n,
                   "gates": [{"kind": g.kind, "param": g.param} for g in self.gates]}
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Circuit":
        payload = json.loads(text)
        if not isinstance(payload, dict) or set(payload) != {"n", "gates"}:
            raise ValueError('circuit JSON needs exactly the keys "n" and "gates"')
        n, gates = payload["n"], payload["gates"]
        if not isinstance(gates, list) or not all(
                isinstance(g, dict) and set(g) == {"kind", "param"} for g in gates):
            raise ValueError('each gate needs exactly a "kind" and a numeric "param"')
        return Circuit(n, tuple(Gate(g["kind"], g["param"]) for g in gates))


def simplify(circ: Circuit) -> Circuit:
    """Merge adjacent same-kind gates and drop zero-parameter gates."""
    require_type(circ, Circuit, "circ")
    out: list[Gate] = []
    for g in circ.gates:
        if out and out[-1].kind == g.kind:
            merged = out.pop().param + g.param
            if merged != 0.0:
                out.append(Gate(g.kind, merged))
        elif g.param != 0.0:
            out.append(g)
    return Circuit(circ.n, tuple(out))


def interaction_time(circ: Circuit) -> float:
    """Total coupling-on time Σ|r|, in units of 2π/g."""
    require_type(circ, Circuit, "circ")
    return float(circ.total_tc_time() / (2 * np.pi))


@lru_cache(maxsize=None)
def _skew(jj: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot [s, r] of every tower label (k, r = j - m), as two [k, r] index
    arrays.  s = k - r + 2j labels the charge diagonal: coupling pulses
    conserve it, and it equals q - (n - 2j)/2 for every n."""
    r = np.arange(jj + 1)
    s = np.arange(k_max + 1)[:, None] - r + jj
    s.setflags(write=False)
    return s, np.broadcast_to(r, s.shape)


@lru_cache(maxsize=None)
def _tc_eig(jj: int, k_max: int):
    """Real eigensystems of the coupling on each charge diagonal of the jj
    tower, stacked [s, r, r]; slots outside 0 ≤ k ≤ k_max stay uncoupled.
    v and vt = vᵀ are float64, the factors of every pulse's real products."""
    blocks = np.zeros((jj + k_max + 1, jj + 1, jj + 1))
    for s, block in enumerate(blocks):
        lo, hi = max(0, jj - s), min(jj, jj + k_max - s) + 1  # k = s + r - jj
        block[lo:hi, lo:hi] = ops.coupling(
            [(jj, jj - 2 * r, s + r - jj) for r in range(lo, hi)])
    w, v = np.linalg.eigh(blocks)
    vt = v.transpose(0, 2, 1).copy()  # C order, so vt * p keeps a float view
    for arr in (w, v, vt):
        arr.setflags(write=False)
    return w, v, vt


@lru_cache(maxsize=None)
def _rx_eig(jj: int):
    w, v = np.linalg.eigh(ops.jx_operator(jj))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _run(gates, jj: int, k_max: int, size: int) -> np.ndarray:
    """Product of rx-free gates on the first `size` charge diagonals of the jj
    tower truncated at k_max, an [s, r, r] stack.  One exp gives the phases of
    all tc gates, [G, s, r], one those of all rz gates, laid out [G, r, r].  A
    tc is vt, its phases, then v, each real factor a GEMM on float views."""
    w, v, vt = (a[:size] for a in _tc_eig(jj, k_max))
    run = np.eye(jj + 1, dtype=complex)  # leading rz gates keep it [r, r]
    tc, rz = (np.exp(-1j * np.multiply.outer(
        [g.param for g in gates if g.kind == kind], e))[..., None]
        for kind, e in (("tc", w), ("rz", jj / 2 - np.arange(jj + 1))))
    tc, rz = iter(tc), iter(np.repeat(rz, jj + 1, axis=-1))
    for i, g in enumerate(gates):
        if g.kind == "rz":  # phase first: complex * is not bitwise symmetric
            np.multiply(next(rz), run, out=run)
        elif run.ndim == 3:  # in place, through the views the first tc took
            np.matmul(vt, rf, out=yf)
            np.multiply(y, next(tc), out=y)
            np.matmul(v, yf, out=rf)
        else:  # the first tc allocates run and its spare y; at i == 0 no vt @ I
            y = (vt if i == 0 else (vt @ run.view(float)).view(complex)) * next(tc)
            yf, rf = y.view(float), v @ y.view(float)
            run = rf.view(complex)
    return run if run.ndim == 3 else np.tile(run, (len(w), 1, 1))


def _tower(x: np.ndarray, jj: int, rows: int) -> np.ndarray:
    """Tower rows k < rows (at most k ≤ k_max), [k, r, cols], as a view of
    x[r, s, cols]: slot (k, r) is x[r, k - r + 2j], each stride positive."""
    (dr, ds, dc), rows = x.strides, min(rows, x.shape[1] - jj)
    return np.ndarray((rows, jj + 1, x.shape[2]), complex, x, jj * ds,
                      (ds, dr - ds, dc))  # bounds-checked against x


def _evolve(gates, jj: int, k_max: int, cols: np.ndarray) -> np.ndarray:
    """Evolve the identity columns at the slots of the [k, r] mask cols (r =
    j - m) of the jj tower truncated at k_max, in tower order, and return the
    tower [k, r, cols]: a view (see _tower) of the state, held [r, s, cols] on
    the charge diagonals s (see _skew).  The first run gives the columns
    unmultiplied, on s ≤ top, so runs touch only s ≤ top and each rx only the
    rows k ≤ top, raising top by 2j.  Products write the spare buffer and the
    two swap; top only grows, so no slot keeps a stale value."""
    s, r = (a[cols] for a in _skew(jj, k_max))
    start, last, top, c = 0, jj + k_max, int(s.max()), np.arange(len(s))
    x = np.zeros((jj + 1, last + 1, len(s)), dtype=complex)
    x[r, s, c] = 1.0  # the identity columns
    spare = np.zeros(x.shape, complex)  # apart: freed if not returned
    for stop in [i for i, g in enumerate(gates) if g.kind == "rx"] + [len(gates)]:
        if start == 0 and stop > 0:  # the first run's columns replace them
            x[:, s, c] = _run(gates[:stop], jj, k_max, top + 1)[s, :, r].T
        elif stop > start:
            run = _run(gates[start:stop], jj, k_max, top + 1)
            np.matmul(run, x.transpose(1, 0, 2)[:top + 1],
                      out=spare.transpose(1, 0, 2)[:top + 1])
            x, spare = spare, x
        if stop < len(gates):
            wx, vx = _rx_eig(jj)
            np.matmul((vx * np.exp(-1j * gates[stop].param * wx)) @ vx.T,
                      _tower(x, jj, top + 1), out=_tower(spare, jj, top + 1))
            x, spare, top = spare, x, min(top + jj, last)
        start = stop + 1
    return _tower(x, jj, k_max + 1)


@dataclass
class BlockUnitary:
    """Product unitary of a circuit, stored block by block.

    ``blocks`` maps SectorIndex -> matrix on the charge backend.  On the
    jtower backend it maps the doubled spin jj -> the d × c isometry from the
    tower states of charge q ≤ q_max, the only ones k_max keeps exact, into
    all d tower states, both ordered by k(2j+1) + j - m; ``columns[jj]``
    holds the (k, 2m) labels of the c states.  A spin with none has no entry.
    """

    backend: str
    n: int
    q_max: int
    blocks: dict
    k_max: dict = field(default_factory=dict)
    columns: dict = field(default_factory=dict)

    def unitarity_defect(self) -> float:
        """Largest ‖B†B - I‖_F over the blocks; NaN if any block has one."""
        return float(np.max([np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1]))
                             for b in self.blocks.values()], initial=0.0))


def tower_k_max(circ: Circuit, q_max: int, jj: int) -> int:
    """Truncation making the jj tower exact for initial support q ≤ q_max.

    Coupling pulses conserve q and rx conserves k, so support with q ≤ q_max
    stays below k = q_max + j - n/2.  Each rx can raise the charge support by
    up to 2j, which the next coupling pulse converts into oscillator support,
    so every tc run that follows an rx widens the required window by 2j.
    rz conserves the charge and ends no run, so the runs are counted as the
    rx → tc steps of the gate kinds with rz left out.
    """
    return max(0, q_max + circ._rx_runs * jj + (jj - circ.n) // 2)


def _towers(circ: Circuit, q_max: int):
    """(2j, k0, k_max, gates) of each spin with a state of charge q ≤ q_max:
    those lie on the diagonals s ≤ k0 = q_max + (2j - n)/2, k_max keeps them
    exact, and the singlet, where every gate is exactly 1, gets no gates."""
    for jj in spins(circ.n):
        k0 = q_max + (jj - circ.n) // 2
        if k0 >= 0:
            yield jj, k0, tower_k_max(circ, q_max, jj), circ.gates if jj else ()


@lru_cache(maxsize=None)
def _sector_slots(n: int, q_max: int) -> tuple:
    """(sector, 2j, s, dim) per sector; its block is [s, -dim:, -dim:] of run 2j."""
    return tuple((i, i.jj, i.q - (n - i.jj) // 2, i.dim) for i in enumerate_sectors(n, q_max))


def apply_circuit(circ: Circuit, q_max: int, backend: str = "auto") -> BlockUnitary:
    """Evolve the whole circuit; every block is unitary, on jtower an isometry,
    to ~1e-14."""
    require_type(circ, Circuit, "circ")
    require_int(q_max, "q_max", 0)
    if backend == "auto":
        backend = "jtower" if circ.has_rx() else "charge"
    if backend not in ("charge", "jtower"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "charge" and circ.has_rx():
        raise ValueError("rx gates break charge conservation; use the jtower backend")
    if backend == "charge":  # rx-free, so k_max = k0: _evolve's first run
        runs = {jj: _run(gates, jj, k_max, k0 + 1)
                for jj, k0, k_max, gates in _towers(circ, q_max)}
        return BlockUnitary("charge", circ.n, q_max, {  # views: last slots r have k ≥ 0
            idx: runs[jj][s, -d:, -d:] for idx, jj, s, d in _sector_slots(circ.n, q_max)})
    blocks, kmaxes, columns = {}, {}, {}
    for jj, k0, k_max, gates in _towers(circ, q_max):
        kmaxes[jj], cols = k_max, _skew(jj, k_max)[0] <= k0
        # tower order; column (k, 2m) from its slot (k, r = j - m)
        columns[jj] = np.argwhere(cols) * [1, -2] + [0, jj]
        blocks[jj] = _evolve(gates, jj, k_max, cols).reshape(-1, len(columns[jj]))
    return BlockUnitary("jtower", circ.n, q_max, blocks, kmaxes, columns)


@dataclass
class VacuumSandwich:
    """⟨0|V|0⟩ on the qubits, as PI blocks and as a 2^n x 2^n matrix."""

    n: int
    u_by_j: dict[int, np.ndarray]
    residual: float

    @cached_property
    def matrix(self) -> np.ndarray:
        """Assembled on first read: from n ≈ 8 on it costs more than the circuit."""
        return assemble_pi(self.n, self.u_by_j)


def vacuum_sandwich(bu: BlockUnitary) -> VacuumSandwich:
    """Extract the qubit operator with the oscillator in and out of vacuum.

    The result need not be unitary; the deviation ‖U†U - I‖_F measures how
    much the circuit entangles the qubits with the oscillator.
    """
    require_type(bu, BlockUnitary, "bu")
    n = bu.n
    if bu.q_max < n:  # the states |j,m⟩⊗|0⟩ reach charge q = n
        raise ValueError(f"vacuum sandwich needs q_max ≥ n = {n}")
    if bu.backend == "charge":
        # |j,m⟩⊗|0⟩ is the first basis label of its sector q = m + n/2
        u_by_j = {}
        for jj in spins(n):
            qs = range((n + jj) // 2, (n - jj) // 2 - 1, -1)  # m = j .. -j
            u_by_j[jj] = np.diag([bu.blocks[SectorIndex(n, q, jj)][0, 0]
                                  for q in qs])
    else:  # tower rows and columns 0..2j hold k = 0
        u_by_j = {jj: tower[:jj + 1, :jj + 1] for jj, tower in bu.blocks.items()}
    # ‖M†M - I‖_F² = Σ_j mult_j ‖u_j†u_j - I‖_F², as M = ⊕_j I_mult ⊗ u_j
    residual = np.sqrt(sum(multiplicity(n, jj) * np.linalg.norm(
        u.conj().T @ u - np.eye(jj + 1)) ** 2 for jj, u in u_by_j.items()))
    return VacuumSandwich(n, u_by_j, float(residual))


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """min over α of ‖u - e^{iα} v‖_F; zero iff equal up to a global phase."""
    u, v = require_finite(u, "u", complex), require_finite(v, "v", complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def evolve_vacuum_state(circ: Circuit, psi_qubits: np.ndarray,
                        q_max: int) -> np.ndarray:
    """Evolve |ψ⟩⊗|0⟩; returns joint amplitudes of shape (2^n, K+1).

    Row index is the computational basis state, column the oscillator level.
    q_max must cover the initial charge support: |b⟩⊗|0⟩ has q = the number
    of zeros in b, so q_max ≥ n suffices for any qubit state on vacuum.
    """
    require_type(circ, Circuit, "circ")
    n = circ.n
    require_int(q_max, "q_max", 0)
    psi_qubits = require_finite(psi_qubits, "state amplitudes", complex)
    if psi_qubits.shape != (2 ** n,):
        raise ValueError(f"state must have length {2 ** n}")
    q_top = max((n - int(b).bit_count() for b in np.flatnonzero(psi_qubits)),
                default=0)
    if q_top > q_max:
        raise ValueError(f"state has support at charge q = {q_top} "
                         f"above q_max = {q_max}")
    basis, amps = jm_basis(n), psi_qubits.view(float).reshape(-1, 2)
    joint = np.zeros((2 ** n, tower_k_max(circ, q_max, n) + 1), dtype=complex)
    for jj, _, k_max, gates in _towers(circ, q_max):  # 2j = n: the widest tower
        frames = basis[jj]  # frames[r]: the copies of |j, m = j - r⟩
        vacuum = np.arange(k_max + 1)[:, None] == np.zeros(jj + 1, int)  # k = 0
        state = _evolve(gates, jj, k_max, vacuum) @ (  # real Fᵀ on ψ's float view
            frames.transpose(0, 2, 1) @ amps).view(complex)[..., 0]
        state = np.ascontiguousarray(state.transpose(1, 2, 0)).view(float)
        joint[:, :k_max + 1] += (frames @ state).sum(0).view(complex)
    return joint

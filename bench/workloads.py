"""Seeded inputs, timed operations and output checks for the benchmark.

Three closed-loop workloads, one client each:

* ``synth``    compile_two_qubit on a fixed pool of uniform phase triples,
               in a seeded order, plus ``tcforge report``;
* ``simulate`` apply_circuit / vacuum_sandwich / evolve_vacuum_state on a
               stratified mix of circuit shapes, plus ``tcforge simulate``;
* ``verify``   the criterion-8 round trip with half the targets perturbed,
               plus the four desk-scale ``tcforge verify`` suites.

Inputs come in rounds drawn from one ``numpy.random.default_rng(seed)``; a
run always ends on a round boundary, so every run of a workload has the same
mix of operation types.  Output checks use the repository's own tolerances
and are written ``not (x < tol)`` so that NaN fails them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from tcforge import cli, dynamics, realizability, synthesis
from tcforge.dynamics import Circuit, Gate
from tcforge.qubits import htc_full, spin_ops
from tcforge.sectors import SectorIndex, enumerate_sectors

# The triple raises "recomposition defect 1.09e-08" at commit d6676e4.  Every
# synth run compiles it once after its window and reports the outcome as a
# known defect.  Fresh uniform triples hit the same defect about once in a
# few thousand, so a run's failures would depend on its seed and length; the
# stream instead draws, in a seeded order, from a fixed pool of uniform
# triples, every one of which compiles and passes the checks at d6676e4.
PINNED_TRIPLE = (1.4884739462014362, 2.4012876269253036, -2.439352522382718)
POOL_SEED, POOL_SIZE = 0, 2000
PARAM_MAX = 2.0            # gate parameters are drawn from [-2, 2)

RESIDUAL_TOL = 1e-8        # compile_two_qubit residual (criterion 8)
TAU_LIMIT = 3.92           # compile_two_qubit tau (criterion 8)
NAMED_TAU_TOL = 0.01       # named-gate tau against the reference (criterion 1)
UNITARITY_TOL = 1e-9       # BlockUnitary.unitarity_defect (test_dynamics)
REFERENCE_TAU = {"cz": 2.866, "swap": 1.273, "iswap": 2.546,
                 "sqrt_iswap": 2.688, "upsiplus": 0.585}
VERIFY_SUITES = ("accidental", "lie", "phases", "realizability")
DESK = ("--n", "6", "--qmax", "12")


@dataclass
class Op:
    kind: str
    args: dict
    label: str = ""   # op type within the workload, for per-op records

    def describe(self) -> dict:
        """The op's input as plain JSON values, for failure records."""
        out: dict[str, Any] = {"kind": self.kind}
        for key, value in self.args.items():
            if isinstance(value, Circuit):
                value = {"n": value.n,
                         "gates": [[g.kind, g.param] for g in value.gates]}
            elif isinstance(value, np.ndarray):
                value = [[float(z.real), float(z.imag)] for z in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[key] = value
        return out


@dataclass
class CliCall:
    label: str
    argv: list[str]


def _random_gates(rng, count: int) -> list[Gate]:
    return [Gate(str(rng.choice(["tc", "rz"])), float(rng.uniform(-PARAM_MAX, PARAM_MAX)))
            for _ in range(count)]


def _circuit(rng, n: int, n_rx: int, length: int = 30) -> Circuit:
    """Alternating tc/rz circuit, the form compiled circuits take.  Each rx
    replaces an rz that a tc follows, so a tower's cutoff grows by exactly
    n_rx·2j and the template fixes k_max while the rx positions vary."""
    params = rng.uniform(-PARAM_MAX, PARAM_MAX, length)
    gates = [Gate("tc" if i % 2 == 0 else "rz", float(p))
             for i, p in enumerate(params)]
    rz_slots = np.arange(1, length - 2, 2)
    for pos in rng.choice(rz_slots, n_rx, replace=False):
        gates[pos] = Gate("rx", gates[pos].param)
    return Circuit(n, gates)


def _longest_circuit(n: int, kinds) -> Circuit:
    """The circuit of the given gate kinds with every parameter at the top
    of its range: the largest interaction time the workload can draw.  Its
    round 0 holds one, so tau_max, which only describes the inputs outside
    synth, is the same on every seed."""
    return Circuit(n, [Gate(kind, PARAM_MAX) for kind in kinds])


def _blocks_problems(bu) -> list[str]:
    problems = []
    if not all(np.isfinite(b).all() for b in bu.blocks.values()):
        problems.append("non-finite block entries")
    defect = bu.unitarity_defect()
    if not (defect < UNITARITY_TOL):
        problems.append(f"unitarity defect {defect!r}")
    return problems


def call_cli(call: CliCall) -> tuple[int, str]:
    """Run one CLI invocation in this process; returns exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(call.argv)
    return rc, out.getvalue()


class Workload:
    """One workload: how its rounds of inputs are drawn, the timed call into
    the program, the output checks, and the CLI calls made beside the stream."""

    name = ""
    round_size = 0
    min_ops = 0       # every run completes these; tau metrics use this prefix
    cli_repeats = 5

    def make_round(self, rng, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed call into the program."""
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def tau(self, op: Op, out) -> float:
        """Interaction time (2π/g) of the circuit the op produced or ran."""
        return dynamics.interaction_time(op.args["circuit"])

    def cli_calls(self, rng, workdir: Path) -> list[CliCall]:
        """CLI invocations of one repetition, timed together."""
        raise NotImplementedError

    def known_defects(self) -> list[dict]:
        """Outcome of the workload's known-defect inputs, run outside the
        stream: one record per input, with the error it raised, if any."""
        return []

    def check_cli(self, call: CliCall, rc: int, text: str) -> list[str]:
        raise NotImplementedError


def phase_target(phi00: float, phi_psi_plus: float, phi11: float) -> np.ndarray:
    """diag(e^{iφ00}, e^{iφΨ+} on Ψ+, 1 on Ψ-, e^{iφ11}) in the computational
    basis, built here rather than taken from the result under test."""
    t = np.zeros((4, 4), dtype=complex)
    t[0, 0], t[3, 3] = np.exp(1j * phi00), np.exp(1j * phi11)
    plus = np.array([[1, 1], [1, 1]]) / 2
    t[1:3, 1:3] = np.exp(1j * phi_psi_plus) * plus + (np.eye(2) - plus)
    return t


class PairOracle:
    """Brute-force ⟨0|V|0⟩ for two-qubit tc/rz circuits on the full
    (C²)^⊗2 ⊗ Fock space, independent of the sector code in dynamics."""

    K_CUT = 3  # vacuum inputs reach k ≤ 2; k = 3 keeps the cut harmless

    def __init__(self):
        self.w, self.v = np.linalg.eigh(htc_full(2, self.K_CUT))
        jz = np.real(np.diag(spin_ops(2)[2]))
        self.jz = np.kron(jz, np.ones(self.K_CUT + 1))
        self.vac = np.arange(4) * (self.K_CUT + 1)

    def sandwich(self, circ: Circuit) -> np.ndarray:
        u = np.eye(len(self.w), dtype=complex)
        for g in circ.gates:
            if g.kind == "tc":
                u = (self.v * np.exp(-1j * g.param * self.w)) @ (self.v.conj().T @ u)
            elif g.kind == "rz":
                u = np.exp(-1j * g.param * self.jz)[:, None] * u
            else:
                raise ValueError(f"oracle has no {g.kind} gate")
        return u[np.ix_(self.vac, self.vac)]


class Synth(Workload):
    name = "synth"
    round_size = 20
    min_ops = 200
    cli_repeats = 8

    def __init__(self):
        self.oracle = PairOracle()
        self.order = None
        self.pool = None

    def make_round(self, rng, index):
        """Round ``index`` of the seed's permutation of the triple pool."""
        if index == 0:
            self.pool = np.random.default_rng(POOL_SEED).uniform(-np.pi, np.pi,
                                                                 (POOL_SIZE, 3))
            self.order = rng.permutation(POOL_SIZE)
        picks = self.order[np.arange(index * self.round_size,
                                     (index + 1) * self.round_size) % POOL_SIZE]
        return [Op("compile", {"phases": tuple(float(x) for x in self.pool[i])}, "compile")
                for i in picks]

    def run(self, op):
        return synthesis.compile_two_qubit(*op.args["phases"])

    def check(self, op, res):
        problems = []
        if not (res.residual < RESIDUAL_TOL):
            problems.append(f"residual {res.residual!r}")
        if not (res.tau <= TAU_LIMIT):
            problems.append(f"tau {res.tau!r}")
        tau = dynamics.interaction_time(res.circuit)
        if not (abs(tau - res.tau) <= 1e-9):
            problems.append(f"reported tau {res.tau!r} but circuit takes {tau!r}")
        target = phase_target(*op.args["phases"])
        oracle = float(np.abs(self.oracle.sandwich(res.circuit) - target).max())
        if not (oracle < RESIDUAL_TOL):
            problems.append(f"brute-force residual {oracle!r}")
        return problems

    def tau(self, op, res):
        return res.tau

    def cli_calls(self, rng, workdir):
        return [CliCall("cli.report", ["report"])]

    def known_defects(self):
        op = Op("compile", {"phases": PINNED_TRIPLE}, "compile.pinned")
        try:
            problems = self.check(op, self.run(op))
        except Exception as exc:
            return [{"input": op.describe(), "type": type(exc).__name__,
                     "message": str(exc)}]
        return [{"input": op.describe(), "type": "OutputCheck" if problems else None,
                 "message": "; ".join(problems) or "compiles and passes every check"}]

    def check_cli(self, call, rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(text)
        problems = []
        taus = {row["gate"]: row["tau"] for row in report["gates"]}
        for gate, ref in REFERENCE_TAU.items():
            if not (abs(taus.get(gate, math.nan) - ref) <= NAMED_TAU_TOL):
                problems.append(f"{gate} tau {taus.get(gate)!r}, reference {ref}")
        if not (report["worst_residual"] < RESIDUAL_TOL):
            problems.append(f"worst residual {report['worst_residual']!r}")
        return problems


# (kind, n, q_max, rx count, ops per round).  The two n = 12 towers carry
# about two thirds of the time.  The counts put p90 inside the jtower n = 8,
# 2-rx group and the median inside the charge n = 4 group, each well apart
# from its neighbours in cost, so the percentiles do not hop between groups.
# The rx count fixes each tower's k_max, so every run sees the same
# eig-cache keys.
SIMULATE_ROUND = (
    ("jtower", 12, 24, 1, 1), ("jtower", 12, 24, 2, 1),
    ("jtower", 8, 16, 1, 2), ("jtower", 8, 16, 2, 5),
    ("jtower", 6, 12, 1, 2), ("jtower", 6, 12, 2, 2),
    ("jtower", 4, 8, 1, 2), ("jtower", 4, 8, 2, 2),
    ("jtower", 2, 2, 1, 4), ("jtower", 2, 2, 2, 3),
    ("charge", 12, 24, 0, 3), ("charge", 8, 16, 0, 3),
    ("charge", 6, 12, 0, 3), ("charge", 4, 8, 0, 6), ("charge", 2, 2, 0, 6),
    ("evolve", 6, 12, 1, 3), ("evolve", 4, 8, 1, 3), ("evolve", 2, 2, 1, 4),
)


class Simulate(Workload):
    name = "simulate"
    round_size = sum(t[-1] for t in SIMULATE_ROUND)
    min_ops = 5 * round_size
    cli_repeats = 40

    def make_round(self, rng, index):
        ops = []
        for kind, n, q_max, n_rx, count in SIMULATE_ROUND:
            for _ in range(count):
                args = {"circuit": _circuit(rng, n, n_rx), "q_max": q_max}
                if kind == "evolve":
                    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
                    args["psi"] = psi / np.linalg.norm(psi)
                ops.append(Op(kind, args, f"{kind}.n{n}.rx{n_rx}"))
        if index == 0:
            k = [op.label for op in ops].index("charge.n2.rx0")
            ops[k] = Op("charge", {"circuit": _longest_circuit(2, ["tc", "rz"] * 15),
                                   "q_max": 2}, "charge.n2.longest")
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        circ, q_max = op.args["circuit"], op.args["q_max"]
        if op.kind == "evolve":
            return dynamics.evolve_vacuum_state(circ, op.args["psi"], q_max)
        bu = dynamics.apply_circuit(circ, q_max, backend=op.kind)
        vs = dynamics.vacuum_sandwich(bu) if op.kind == "charge" and circ.n <= 6 else None
        return bu, vs

    def check(self, op, out):
        if op.kind == "evolve":
            if not np.isfinite(out).all():
                return ["non-finite amplitudes"]
            drift = abs(float(np.sum(np.abs(out) ** 2)) - 1.0)
            return [] if drift < UNITARITY_TOL else [f"norm drift {drift!r}"]
        bu, vs = out
        problems = _blocks_problems(bu)
        if vs is not None:
            if not np.isfinite(vs.matrix).all():
                problems.append("non-finite vacuum sandwich")
            else:
                # ⟨0|V|0⟩ is a block of a unitary, so it cannot expand a state
                norm = float(np.linalg.norm(vs.matrix, 2))
                if not (norm <= 1 + UNITARITY_TOL):
                    problems.append(f"vacuum sandwich norm {norm!r}")
        return problems

    def cli_calls(self, rng, workdir):
        path = workdir / "simulate_input.circuit.json"
        path.write_text(_circuit(rng, 8, 0).to_json() + "\n")
        return [CliCall("cli.simulate", ["simulate", str(path), "--qmax", "16"])]

    def check_cli(self, call, rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        result = json.loads(text)
        values = [x for b in result["blocks"] for row in b["matrix"]
                  for z in row for x in z]
        if not all(math.isfinite(x) for x in values):
            return ["non-finite block entries"]
        if not math.isfinite(result["vacuum_residual"]):
            return [f"vacuum residual {result['vacuum_residual']!r}"]
        return []


class Verify(Workload):
    name = "verify"
    round_size = 20
    min_ops = 5000
    cli_repeats = 15   # the lie suite's thread pool makes single repetitions noisy

    def make_round(self, rng, index):
        ops = []
        for i in range(self.round_size):
            n = int(rng.integers(2, 5))
            q_max = int(rng.integers(2, 9))
            circ = Circuit(n, _random_gates(rng, int(rng.integers(1, 31))))
            perturb = None
            if i % 2:
                sectors = list(enumerate_sectors(n, q_max))
                s = sectors[int(rng.integers(len(sectors)))]
                perturb = (s.q, s.jj, float(rng.uniform(0.5, 2 * np.pi - 0.5)))
            ops.append(Op("roundtrip", {"circuit": circ, "q_max": q_max,
                                        "perturb": perturb},
                          f"{'reject' if perturb else 'accept'}.n{n}"))
        if index == 0:
            ops[0] = Op("roundtrip", {"circuit": _longest_circuit(4, ["tc"] * 30),
                                      "q_max": 8, "perturb": None}, "accept.n4.longest")
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        circ, q_max = op.args["circuit"], op.args["q_max"]
        bu = dynamics.apply_circuit(circ, q_max, backend="charge")
        target = realizability.block_target_from_unitary(bu)
        if op.args["perturb"] is not None:
            q, jj, phase = op.args["perturb"]
            blocks = dict(target.blocks)
            key = SectorIndex(circ.n, q, jj)
            blocks[key] = blocks[key] * np.exp(1j * phase)
            target = realizability.BlockTarget(target.n, target.q_max, blocks)
        return bu, realizability.check_block_target(target)

    def check(self, op, out):
        bu, verdict = out
        problems = _blocks_problems(bu)
        if op.args["perturb"] is None:
            if not (verdict.realizable and verdict.alpha is not None
                    and verdict.beta is not None):
                problems.append(f"realizable target rejected: {verdict.violation}")
        elif verdict.realizable or verdict.violation is None:
            problems.append("perturbed target accepted")
        return problems

    def cli_calls(self, rng, workdir):
        return [CliCall(f"cli.verify.{suite}", ["verify", suite, *DESK])
                for suite in VERIFY_SUITES]

    def check_cli(self, call, rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(text)
        failed = [c["scope"] for c in report["checks"] if c["pass"] is not True]
        if report["pass"] is not True or failed:
            return [f"checks failed: {failed}"]
        return []


WORKLOADS = {w.name: w for w in (Synth, Simulate, Verify)}

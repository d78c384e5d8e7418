"""Which tcforge functions the traced run wraps, and how their spans become
per-layer metrics.

Layers are named after the module that defines them.  ``calls`` is a span
count, ``self_ms`` the summed self time, ``ms_p50`` the median span
duration, ``ms_sum`` the summed span duration and ``ms`` the median span
duration of a call made once per CLI repetition.
"""

from __future__ import annotations

import numpy as np

from tcforge import dynamics, liealg, operators, qubits, realizability, synthesis
from tcforge.sectors import j_min2

from tracer import Tracer, tcforge_modules
from workloads import VERIFY_SUITES

# qubit counts with their own apply_circuit rows; verify also runs n = 3
BACKEND_SIZES = {"charge": (2, 3, 4, 6, 8, 12), "jtower": (2, 4, 6, 8, 12)}
NAMED_GATES = ("cz", "swap", "iswap", "sqrt_iswap", "upsiplus")
ERROR_LAYERS = ("synthesis", "dynamics", "operators", "qubits", "numpy",
                "realizability", "liealg", "cli")


def _arg(args, kwargs, pos: int, key: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _apply_circuit_name(args, kwargs, result) -> str:
    circ = _arg(args, kwargs, 0, "circ")
    backend = _arg(args, kwargs, 2, "backend", "auto")
    if backend == "auto":
        backend = "jtower" if circ.has_rx() else "charge"
    return f"dynamics.apply_circuit.{backend}.n{circ.n}"


def _named_gate_name(args, kwargs, result) -> str:
    return f"synthesis.named_gate.{str(_arg(args, kwargs, 0, 'name')).lower()}"


def _verdict_name(args, kwargs, result) -> str:
    if result is None:
        return "realizability.check_block_target.error"
    verdict = "accept" if result.realizable else "reject"
    return f"realizability.check_block_target.{verdict}"


def install(tracer: Tracer) -> None:
    """Wrap every lookup site of the traced functions."""
    mods = tcforge_modules()
    targets = [
        (synthesis.compile_two_qubit, "synthesis.compile_two_qubit"),
        (synthesis.decompose_fixed_angle, "synthesis.decompose_fixed_angle"),
        (synthesis.named_gate, _named_gate_name),
        (dynamics.apply_circuit, _apply_circuit_name),
        (dynamics.vacuum_sandwich, "dynamics.vacuum_sandwich"),
        (dynamics.evolve_vacuum_state, "dynamics.evolve_vacuum_state"),
        (qubits.jm_basis, "qubits.jm_basis"),
        (qubits.assemble_pi, "qubits.assemble_pi"),
        # builders behind the eig caches: their calls are cache misses
        (operators.htc_block, "operators.build"),
        (operators.htc_tower, "operators.build"),
        (operators.jx_operator, "operators.build"),
        (realizability.check_block_target, _verdict_name),
        (liealg.sector_rank_check, "liealg.sector_rank_check"),
        (liealg.variance_separation_check, "liealg.variance_separation_check"),
    ]
    for fn, name in targets:
        if tracer.wrap(fn, name, mods) == 0:
            raise RuntimeError(f"no lookup site found for {fn.__qualname__}")
    tracer.wrap(np.linalg.eigh, "numpy.eigh", [np.linalg])


def tower_dim_sum(circuits_and_qmax) -> int:
    """Σ over jtower evolutions of Σ_j (2j+1)(k_max+1): the tower work, a
    count fixed by the inputs."""
    total = 0
    for circ, q_max in circuits_and_qmax:
        for jj in range(circ.n, j_min2(circ.n) - 1, -2):
            total += (jj + 1) * (dynamics.tower_k_max(circ, q_max, jj) + 1)
    return total


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; layers that did not run
    report zero."""
    self_ms = tracer.self_ms()
    groups: dict[str, list] = {}
    for s in tracer.spans:
        parts = s.name.split(".")
        for i in range(2, len(parts) + 1):
            groups.setdefault(".".join(parts[:i]), []).append(s)

    def spans(name):
        return groups.get(name, [])

    def calls(name):
        return float(len(spans(name)))

    def self_sum(name):
        return float(sum(self_ms[s.sid] for s in spans(name)))

    def p50(name):
        ms = [s.ms for s in spans(name)]
        return float(np.median(ms)) if ms else 0.0

    def ms_sum(name):
        return float(sum(s.ms for s in spans(name)))

    out: dict[str, float] = {}
    for layer in ("synthesis.compile_two_qubit", "synthesis.decompose_fixed_angle",
                  "dynamics.apply_circuit.charge", "dynamics.apply_circuit.jtower",
                  "dynamics.vacuum_sandwich", "dynamics.evolve_vacuum_state",
                  "operators.build", "numpy.eigh", "liealg.sector_rank_check"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_ms"] = self_sum(layer)
    for layer in ("qubits.jm_basis", "qubits.assemble_pi",
                  "liealg.variance_separation_check"):
        out[f"{layer}.self_ms"] = self_sum(layer)
    for gate in NAMED_GATES:
        out[f"synthesis.named_gate.{gate}.ms"] = p50(f"synthesis.named_gate.{gate}")
    for suite in VERIFY_SUITES:
        out[f"cli.verify.{suite}.ms"] = p50(f"cli.verify.{suite}")
    for backend, sizes in BACKEND_SIZES.items():
        for n in sizes:
            name = f"dynamics.apply_circuit.{backend}.n{n}"
            out[f"{name}.ms_p50"] = p50(name)
            out[f"{name}.ms_sum"] = ms_sum(name)
    for verdict in ("accept", "reject"):
        name = f"realizability.check_block_target.{verdict}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms_p50"] = p50(name)
    for layer in ERROR_LAYERS:
        out[f"{layer}.errors"] = float(sum(1 for s in tracer.spans
                                           if s.error and s.name.startswith(layer + ".")))
    return out

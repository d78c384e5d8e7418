"""Batch front end: synthesize gates, simulate circuits, run verification
suites, and emit machine-readable reports.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a verification
or synthesis tolerance fails.  Output JSON is deterministic (sorted keys,
shortest round-trip floats).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import liealg, realizability as rz, synthesis
from .dynamics import (Circuit, Gate, apply_circuit, evolve_vacuum_state,
                       interaction_time, vacuum_sandwich)
from .operators import htc_block, jz_block
from .sectors import (accidental_pairs, accidental_partner, enumerate_sectors,
                      is_filled, multiplicity, require_int, require_tol,
                      sector_dim)

DESK_N = 6
DESK_QMAX = 12


def _emit(text: str, out) -> None:
    """Write text to the file out, or print it when out is empty."""
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="")


def _dump(obj, out) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) byte for byte.  Each
    array (from _matrix_json) is held out of json's indenting encoder, which
    is pure Python, as a placeholder string, and rendered from its layout."""
    mark, arrays = "\0matrix\0", []

    def hold(a: np.ndarray) -> str:
        arrays.append(a)  # anything but a float array fails below, with TypeError
        return mark
    parts = json.dumps(obj, sort_keys=True, indent=2, default=hold).split(json.dumps(mark))
    if len(parts) != len(arrays) + 1:
        raise RuntimeError("a string in the output reads as the matrix placeholder")
    text = parts[:1]
    for a, before, after in zip(arrays, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]  # the line the array opens on
        fmt = float.__repr__ if np.isfinite(a).all() else json.dumps  # json's NaN, Infinity
        text += [_layout(a.shape, len(line) - len(line.lstrip(" ")))
                 % tuple(map(fmt, a.ravel().tolist())), after]
    _emit("".join(text) + "\n", out)


@lru_cache
def _layout(shape: tuple, indent: int) -> str:
    """json's indent=2 text of nested lists of that shape, %s for each float."""
    if not shape:
        return "%s"
    gap = "\n" + " " * (indent + 2)
    items = ("," + gap).join([_layout(shape[1:], indent + 2)] * shape[0])
    return "[" + gap + items + "\n" + " " * indent + "]" if shape[0] else "[]"


def _matrix_json(m: np.ndarray) -> np.ndarray:
    """[re, im] pairs; + 0.0 turns -0.0, an accident of the arithmetic, into 0.0."""
    return np.stack((m.real, m.imag), -1) + 0.0


def cmd_synthesize(args) -> int:
    require_tol(args.tol, "--tol")
    if args.gate:
        res = synthesis.named_gate(args.gate, phi=args.phi)
        target_name = args.gate
    elif args.phases:
        parts = [float(x) for x in args.phases.split(",")]
        if len(parts) != 3:
            raise ValueError("--phases wants three comma-separated values")
        res = synthesis.compile_two_qubit(*parts)
        target_name = f"phases({parts[0]},{parts[1]},{parts[2]})"
    else:
        raise ValueError("synthesize needs --gate or --phases")
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    stem = target_name.replace("(", "_").replace(")", "").replace(",", "_")
    (out / f"{stem}.circuit.json").write_text(res.circuit.to_json() + "\n")
    report = {
        "target": target_name,
        "tau": res.tau,
        "kind": res.kind,
        "parameters": res.params,
        "residual": res.residual,
        "global_phase": res.global_phase,
    }
    _dump(report, out / f"{stem}.report.json")
    print(f"{target_name}: tau = {res.tau:.6f} x 2pi/g, residual = "
          f"{res.residual:.2e}")
    return 0 if res.residual < args.tol else 2


_NAMED_STATES = {"psi+": [0, 1, 1, 0], "psi-": [0, 1, -1, 0]}


def _parse_state(spec: str, n: int) -> np.ndarray:
    if spec in _NAMED_STATES:
        if n != 2:
            raise ValueError(f"state {spec!r} is defined for n = 2 only")
        v = np.array(_NAMED_STATES[spec], dtype=complex)
        return v / np.linalg.norm(v)
    if len(spec) == n and set(spec) <= {"0", "1"}:
        v = np.zeros(2 ** n, dtype=complex)
        v[int(spec, 2)] = 1.0
        return v
    raise ValueError(f"cannot parse state {spec!r} for n = {n}")


def cmd_simulate(args) -> int:
    circ = Circuit.from_json(Path(args.circuit).read_text())
    q_max = args.qmax if args.qmax is not None else max(circ.n, 2)
    result = {"n": circ.n, "q_max": q_max,
              "interaction_time": interaction_time(circ)}
    if args.state:
        psi = _parse_state(args.state, circ.n)
        joint = evolve_vacuum_state(circ, psi, q_max) + 0.0  # as in _matrix_json
        amps = [{"bits": format(i, f"0{circ.n}b"), "k": int(k),
                 "re": float(joint[i, k].real), "im": float(joint[i, k].imag)}
                for i, k in np.argwhere(np.abs(joint) > 1e-12)]  # row-major
        vac = float(np.sum(np.abs(joint[:, 1:]) ** 2))
        result["amplitudes"] = amps
        result["oscillator_excited_weight"] = vac
    else:
        bu = apply_circuit(circ, q_max)
        if bu.backend == "charge":
            blocks = [{"q": idx.q, "jj": idx.jj,
                       "matrix": _matrix_json(bu.blocks[idx])}
                      for idx in enumerate_sectors(circ.n, q_max)]
            result["blocks"] = blocks
        else:
            result["towers"] = [{"jj": jj, "k_max": bu.k_max[jj],
                                 "columns": bu.columns[jj].tolist(),
                                 "matrix": _matrix_json(m)}
                                for jj, m in sorted(bu.blocks.items())]
        if q_max >= circ.n:
            result["vacuum_residual"] = vacuum_sandwich(bu).residual
    _dump(result, args.out)
    return 0


def _suite_accidental(n: int, q_max: int, tol: float):
    checks = []
    for idx, partner in accidental_pairs(n, q_max):
        dev_h = float(np.abs(htc_block(idx) - htc_block(partner)).max())
        shift = (partner.jj - idx.jj) / 2
        dev_z = float(np.abs(jz_block(idx) - jz_block(partner) - shift).max())
        checks.append({"scope": f"pair q={idx.q} 2j={idx.jj} <-> "
                                f"q={partner.q} 2j={partner.jj}",
                       "residuals": [dev_h, dev_z],
                       "pass": dev_h <= tol and dev_z <= tol})
    rep = liealg.variance_separation_check(n, q_max)
    checks.append({"scope": "variance-separation",
                   "rank": rep.pairs_checked,
                   "pass": rep.ok})
    return checks


def _suite_lie(n: int, q_max: int, tol: float):
    checks = [{"scope": f"rank q={s.q} 2j={s.jj}", "rank": rank,
               "expected": s.dim ** 2 - 1, "pass": rank == s.dim ** 2 - 1}
              for s in enumerate_sectors(n, q_max) if sector_dim(s) >= 2
              for rank in [liealg._sector_closure(s, tol).rank]]
    failed = 0
    for s in enumerate_sectors(n, q_max):
        rep = liealg.anharmonicity_check(s)
        if not rep.matches_closed_form or (sector_dim(s) >= 2
                                           and not rep.condition_holds):
            failed += 1
            checks.append({"scope": f"anharmonicity q={s.q} 2j={s.jj}",
                           "pass": False})
    checks.append({"scope": "anharmonicity-closed-form", "pass": failed == 0})
    return checks


def _suite_phases(n: int, q_max: int, tol: float):
    v_cz = rz.check_pi_u1(rz.cz_controlled_target(n), tol)
    v_anti = rz.check_pi_u1(rz.anti_cz_target(n), tol)
    want_cz = n < 4
    gap, want_gap = rz.constraint_gap(n), max(0, n // 2 - 1)
    return [
        {"scope": "cz-controlled", "pass": v_cz.realizable == want_cz,
         "verdict": v_cz.to_json_dict()},
        {"scope": "anti-cz", "pass": v_anti.realizable,
         "verdict": v_anti.to_json_dict()},
        {"scope": "constraint-gap", "rank": gap, "expected": want_gap,
         "pass": gap == want_gap},
    ]


def _suite_realizability(n: int, q_max: int, tol: float):
    rng = np.random.default_rng(20240901)
    checks = []
    for trial in range(10):
        gates = [Gate(str(rng.choice(["tc", "rz"])), float(rng.uniform(-2, 2)))
                 for _ in range(int(rng.integers(5, 25)))]
        bu = apply_circuit(Circuit(n, gates), q_max, backend="charge")
        verdict = rz.check_block_target(rz.block_target_from_unitary(bu), tol)
        checks.append({"scope": f"round-trip-{trial}",
                       "residuals": [verdict.max_residual],
                       "pass": verdict.realizable})
    return checks


def _suite_schwinger(n: int, q_max: int, tol: float):
    # W acts on spins and oscillator levels, not on n qubits: the sizes are
    # fixed, and the scope names them since --n and --qmax do not apply
    jj_max, k_max = 8, 10
    rep = liealg.schwinger_check(jj_max, k_max)
    return [{"scope": f"schwinger 2j<={jj_max} k<={k_max}",
             "residuals": [rep.conjugation_dev],
             "pass": rep.involution_ok and rep.conjugation_dev <= tol}]


_SUITES = {"accidental": _suite_accidental, "lie": _suite_lie,
           "phases": _suite_phases, "realizability": _suite_realizability,
           "schwinger": _suite_schwinger}


def cmd_verify(args) -> int:
    if args.suite == "schwinger":  # its sizes are fixed: --n and --qmax do not apply
        args.n = args.qmax = None
    else:
        require_int(args.n, "--n", 1)
        require_int(args.qmax, "--qmax", 0)
        if not args.override_scale and (args.n > DESK_N or args.qmax > DESK_QMAX):
            raise ValueError(f"n = {args.n}, q_max = {args.qmax} exceeds desk scale "
                             f"(n ≤ {DESK_N}, q_max ≤ {DESK_QMAX}); pass --override-scale")
    require_tol(args.tol, "--tol")
    checks = _SUITES[args.suite](args.n, args.qmax, args.tol)
    ok = all(c["pass"] for c in checks)
    _dump({"suite": args.suite, "n": args.n, "q_max": args.qmax, "tol": args.tol,
           "checks": checks, "pass": ok}, args.out)
    return 0 if ok else 2


def cmd_sectors(args) -> int:
    rows = []
    for idx in enumerate_sectors(args.n, args.qmax):
        partner = accidental_partner(idx)
        rows.append({"q": idx.q, "jj": idx.jj, "dim": sector_dim(idx),
                     "multiplicity": multiplicity(args.n, idx.jj),
                     "filled": is_filled(idx),
                     "partner": None if partner is None
                     else [partner.q, partner.jj]})
    if args.format == "csv":
        lines = ["q,jj,dim,multiplicity,filled,partner_q,partner_jj"]
        for r in rows:
            pq, pj = (r["partner"] or ["", ""])
            lines.append(f"{r['q']},{r['jj']},{r['dim']},"
                         f"{r['multiplicity']},{int(r['filled'])},{pq},{pj}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _dump({"n": args.n, "sectors": rows}, args.out)
    return 0


REPORT_GATES = ("cz", "swap", "iswap", "sqrt_iswap", "upsiplus")


def cmd_report(args) -> int:
    require_tol(args.tol, "--tol")
    rows = []
    worst = 0.0
    for name in REPORT_GATES:
        res = synthesis.named_gate(name)
        rows.append((name, res.tau))
        worst = max(worst, res.residual)
    if args.format == "csv":
        _emit("gate,tau_x_g_over_2pi\n" + "".join(
            f"{name},{tau!r}\n" for name, tau in rows), args.out)
    else:
        _dump({"gates": [{"gate": g, "tau": t} for g, t in rows],
               "worst_residual": worst}, args.out)
    return 0 if worst < args.tol else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tcforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synthesize", help="compile a two-qubit gate")
    ps.add_argument("--gate", help="cz|swap|iswap|sqrt_iswap|uzz|upsiplus")
    ps.add_argument("--phi", type=float, help="angle for uzz/upsiplus")
    ps.add_argument("--phases", help="phi00,phiPsiPlus,phi11")
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_synthesize)

    pm = sub.add_parser("simulate", help="evolve a circuit file")
    pm.add_argument("circuit")
    pm.add_argument("--state", help='initial qubit state: bits or psi+/psi-')
    pm.add_argument("--qmax", type=int)
    pm.add_argument("--out")
    pm.set_defaults(fn=cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES))
    pv.add_argument("--n", type=int, default=3)
    pv.add_argument("--qmax", type=int, default=8)
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.add_argument("--override-scale", action="store_true")
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("sectors", help="tabulate sectors and partners")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--qmax", type=int, default=DESK_QMAX)
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--out")
    pc.set_defaults(fn=cmd_sectors)

    pr = sub.add_parser("report", help="gate-time table for the named gates")
    pr.add_argument("--format", choices=("json", "csv"), default="json")
    pr.add_argument("--tol", type=float, default=1e-8)
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # bad values, unreadable files, unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

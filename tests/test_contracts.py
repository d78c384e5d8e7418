"""The input contract of every public name in tcforge.

Each row of CONTRACTS names a callable's integer, real, tolerance and array
arguments.  Each such argument is fed NaN, ±inf, a bool, a str and a complex
number, an integer argument also a float and a size a negative number, each
in place of one valid value, and the call must raise a ValueError whose
message starts with the argument's name, with no warning on the way.
Object-typed arguments (sectors, circuits, block unitaries, targets, state
and phase maps) are out of scope, so a name that takes only those, or
nothing, has an empty row.  Of them, only the eight in OBJECT_ARGS are
checked: fed a str, None or a dict, they raise the same kind of ValueError.
"""

import re
import warnings

import numpy as np
import pytest

import tcforge as tc
from tcforge.operators import jx_operator
from tcforge.realizability import block_target_from_unitary, cz_controlled_target
from tcforge.synthesis import DELTA

IDX = tc.SectorIndex(2, 1, 2)
CIRC = tc.Circuit(2, (tc.Gate("tc", 0.5), tc.Gate("rz", 0.3)))
BLOCKS = {idx: np.eye(idx.dim, dtype=complex) for idx in tc.enumerate_sectors(2, 2)}

# kinds: "size" (an integer with a lower bound), "int", "real", "tol", and
# "array" or "carray" (real or complex entries, given as a valid value)
CONTRACTS = {
    "SectorIndex": (tc.SectorIndex, dict(n=2, q=1, jj=2),
                    {"n": "size", "q": "size", "jj": "int"}),
    "sector_dim": None,
    "multiplicity": (tc.multiplicity, dict(n=2, jj=2), {"n": "size", "jj": "int"}),
    "enumerate_sectors": (tc.enumerate_sectors, dict(n=2, q_max=2),
                          {"n": "size", "q_max": "size"}),
    "basis_labels": None,
    "accidental_partner": None,
    "accidental_pairs": (tc.accidental_pairs, dict(n=3, q_max=4),
                         {"n": "size", "q_max": "size"}),
    "is_filled": None,
    "htc_block": None,
    "jz_block": None,
    "number_block": None,
    "jx_operator": (tc.jx_operator, dict(jj=2), {"jj": "size"}),
    "energy_variance": None,
    "charge_vector": None,
    "sector_equivalence_check": (
        tc.sector_equivalence_check,
        dict(idx_a=tc.SectorIndex(6, 4, 4), idx_b=tc.SectorIndex(4, 3, 4), atol=1e-10),
        {"atol": "tol"}),
    "Gate": (tc.Gate, dict(kind="rz", param=0.3), {"param": ("real", "rz parameter")}),
    "Circuit": (tc.Circuit, dict(n=2, gates=()), {"n": ("size", "circuit n")}),
    "BlockUnitary": None,
    "apply_circuit": (tc.apply_circuit, dict(circ=CIRC, q_max=2), {"q_max": "size"}),
    "vacuum_sandwich": None,
    "distance_up_to_phase": (tc.distance_up_to_phase, dict(u=np.eye(2), v=np.eye(2)),
                             {"u": "carray", "v": "carray"}),
    "interaction_time": None,
    "evolve_vacuum_state": (
        tc.evolve_vacuum_state,
        dict(circ=CIRC, psi_qubits=np.array([0, 0, 0, 1.0]), q_max=2),
        {"psi_qubits": ("carray", "state amplitudes"), "q_max": "size"}),
    "simplify": None,
    "AxisAngle": None,
    "Decomposition": None,
    "SynthesisResult": None,
    "solve_two_step": (
        tc.solve_two_step,
        dict(target=tc.AxisAngle(np.array([0, 0, 1.0]), 1.0), step_angle=DELTA),
        {"step_angle": "real"}),
    "euler_embed": (tc.euler_embed, dict(axis=np.array([1.0, 0, 0])), {"axis": "array"}),
    "decompose_fixed_angle": (tc.decompose_fixed_angle, dict(u=np.eye(2)), {"u": "carray"}),
    "a_gate": (tc.a_gate, dict(u=np.eye(2)), {"u": "carray"}),
    "f_gate": None,
    "f_gate_dagger": None,
    "compile_two_qubit": (
        tc.compile_two_qubit, dict(phi00=0.1, phi_psi_plus=0.2, phi11=0.3),
        {p: ("real", "phase") for p in ("phi00", "phi_psi_plus", "phi11")}),
    "named_gate": (tc.named_gate, dict(name="uzz", phi=0.7), {"phi": "real"}),
    "qubit_osc_swap": None,
    "ghz_circuit": None,
    "PiU1Target": (tc.PiU1Target, dict(n=2, phases=cz_controlled_target(2).phases),
                   {"n": "size"}),
    "BlockTarget": (tc.BlockTarget, dict(n=2, q_max=2, blocks=BLOCKS),
                    {"n": "size", "q_max": "size"}),
    "RealizabilityVerdict": None,
    "check_pi_u1": (tc.check_pi_u1, dict(target=cz_controlled_target(2), tol=1e-8),
                    {"tol": "tol"}),
    "check_diagonal": (tc.check_diagonal, dict(n=2, phases={-2: 0.0, 0: 0.1, 2: 0.2},
                                               tol=1e-8),
                       {"n": "size", "tol": "tol"}),
    "check_block_target": (tc.check_block_target,
                           dict(target=tc.BlockTarget(2, 2, BLOCKS), tol=1e-8),
                           {"tol": "tol"}),
    "check_symmetric_phase_constraint": (
        tc.check_symmetric_phase_constraint,
        dict(n=2, q_max=2, theta_q=np.array([0.0, 0.1, 0.2]), tol=1e-8),
        {"n": "size", "q_max": "size", "theta_q": ("array", "θ_q"), "tol": "tol"}),
    "state_convertible": (
        tc.state_convertible, dict(n=2, psi={(2, 0): 1.0}, phi={(2, 0): 1.0}, tol=1e-8),
        {"n": "size", "tol": "tol"}),
    "constraint_gap": (tc.constraint_gap, dict(n=4), {"n": "size"}),
    "OperatorBasis": None,
    "lie_closure": (lambda generators, tol: tc.lie_closure([generators], tol),
                    dict(generators=1j * jx_operator(2), tol=1e-8),
                    {"generators": "carray", "tol": "tol"}),
    "sector_rank_check": (tc.sector_rank_check, dict(idx=IDX, tol=1e-8), {"tol": "tol"}),
    "anharmonicity_check": None,
    "variance_separation_check": (tc.variance_separation_check, dict(n=3, q_max=4),
                                  {"n": "size", "q_max": "size"}),
    "build_exchange_operator": (tc.build_exchange_operator, dict(n=3, q_max=4),
                                {"n": "size", "q_max": "size"}),
    "check_exchange_commutation": (tc.check_exchange_commutation, dict(n=3, q_max=4),
                                   {"n": "size", "q_max": "size"}),
    "schwinger_check": (tc.schwinger_check, dict(jj_max=2, k_max=2),
                        {"jj_max": "size", "k_max": "size"}),
    "verify_pi_universality": (tc.verify_pi_universality, dict(jj=2, tol=1e-8),
                               {"jj": "size", "tol": "tol"}),
}

SCALARS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "bool": True,
           "str": "1", "complex": 1 + 1j}
BAD = {"int": {**SCALARS, "float": 2.0},
       "size": {**SCALARS, "float": 2.0, "negative": -1},
       "real": SCALARS,
       "tol": {**SCALARS, "negative": -1e-8}}


def _bad_arrays(valid, real: bool) -> dict:
    """valid with its first entry replaced by each bad scalar, and all bools."""
    out = {}
    for key, bad in SCALARS.items():
        if key == "bool" or (key == "complex" and not real):
            continue
        entries = np.asarray(valid).astype(object)
        entries.flat[0] = bad
        out[key] = entries.tolist()
    out["bool"] = np.ones(np.shape(valid), dtype=bool)
    return out


def _cases():
    for name, row in CONTRACTS.items():
        if row is None:
            continue
        call, valid, args = row
        for arg, spec in args.items():
            kind, label = spec if isinstance(spec, tuple) else (spec, arg)
            bad = (_bad_arrays(valid[arg], kind == "array") if "array" in kind
                   else BAD[kind])
            for key, value in bad.items():
                yield pytest.param(call, {**valid, arg: value}, label,
                                   id=f"{name}-{arg}-{key}")


def test_every_public_name_has_a_row():
    assert sorted(CONTRACTS) == sorted(tc.__all__)


@pytest.mark.parametrize("name", [n for n, row in CONTRACTS.items() if row])
def test_valid_row_calls_succeed(name):
    call, valid, _ = CONTRACTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**valid)


@pytest.mark.parametrize("call, kwargs, label", _cases())
def test_bad_argument_raises_value_error_naming_it(call, kwargs, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(label)} must be"):
            call(**kwargs)


BU = tc.apply_circuit(CIRC, 2)
# a callable, its valid arguments, and its one object-typed argument's type
OBJECT_ARGS = {
    "apply_circuit": (tc.apply_circuit, dict(circ=CIRC, q_max=2), "circ", "Circuit"),
    "simplify": (tc.simplify, dict(circ=CIRC), "circ", "Circuit"),
    "evolve_vacuum_state": (tc.evolve_vacuum_state,
                            dict(circ=CIRC, psi_qubits=np.array([0, 0, 0, 1.0]), q_max=2),
                            "circ", "Circuit"),
    "interaction_time": (tc.interaction_time, dict(circ=CIRC), "circ", "Circuit"),
    "vacuum_sandwich": (tc.vacuum_sandwich, dict(bu=BU), "bu", "BlockUnitary"),
    "block_target_from_unitary": (block_target_from_unitary, dict(bu=BU), "bu",
                                  "BlockUnitary"),
    "check_block_target": (tc.check_block_target,
                           dict(target=tc.BlockTarget(2, 2, BLOCKS)), "target",
                           "BlockTarget"),
    "htc_block": (tc.htc_block, dict(idx=IDX), "idx", "SectorIndex"),
}


@pytest.mark.parametrize("name", OBJECT_ARGS)
@pytest.mark.parametrize("bad", ["x", None, {}], ids=["str", "None", "dict"])
def test_object_argument_of_the_wrong_type_raises_value_error_naming_it(name, bad):
    call, valid, arg, kind = OBJECT_ARGS[name]
    call(**valid)
    message = f"^{arg} must be a {kind}, got {type(bad).__name__}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(**{**valid, arg: bad})

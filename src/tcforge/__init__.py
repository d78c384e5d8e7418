"""tcforge: sector-exact simulation, synthesis and realizability analysis
for n qubits collectively coupled to one oscillator."""

from .sectors import (SectorIndex, sector_dim, multiplicity,
                      enumerate_sectors, basis_labels, accidental_partner,
                      accidental_pairs, is_filled)
from .operators import (htc_block, jz_block, number_block, jx_operator,
                        energy_variance, charge_vector,
                        sector_equivalence_check)
from .dynamics import (Gate, Circuit, BlockUnitary, apply_circuit,
                       vacuum_sandwich, distance_up_to_phase,
                       interaction_time, evolve_vacuum_state, simplify)
from .synthesis import (AxisAngle, Decomposition, SynthesisResult,
                        solve_two_step, euler_embed,
                        decompose_fixed_angle, a_gate, f_gate, f_gate_dagger,
                        compile_two_qubit, named_gate, qubit_osc_swap,
                        ghz_circuit)
from .realizability import (PiU1Target, BlockTarget, RealizabilityVerdict,
                            check_pi_u1, check_diagonal, check_block_target,
                            check_symmetric_phase_constraint,
                            state_convertible, constraint_gap)
from .liealg import (OperatorBasis, lie_closure, sector_rank_check,
                     anharmonicity_check, variance_separation_check,
                     build_exchange_operator, check_exchange_commutation,
                     schwinger_check, verify_pi_universality)

__all__ = [
    "SectorIndex", "sector_dim", "multiplicity",
    "enumerate_sectors", "basis_labels", "accidental_partner",
    "accidental_pairs", "is_filled",
    "htc_block", "jz_block", "number_block", "jx_operator",
    "energy_variance", "charge_vector", "sector_equivalence_check",
    "Gate", "Circuit", "BlockUnitary", "apply_circuit",
    "vacuum_sandwich", "distance_up_to_phase", "interaction_time",
    "evolve_vacuum_state", "simplify",
    "AxisAngle", "Decomposition", "SynthesisResult", "solve_two_step",
    "euler_embed", "decompose_fixed_angle", "a_gate",
    "f_gate", "f_gate_dagger", "compile_two_qubit", "named_gate",
    "qubit_osc_swap", "ghz_circuit",
    "PiU1Target", "BlockTarget", "RealizabilityVerdict", "check_pi_u1",
    "check_diagonal", "check_block_target",
    "check_symmetric_phase_constraint", "state_convertible",
    "constraint_gap",
    "OperatorBasis", "lie_closure", "sector_rank_check",
    "anharmonicity_check", "variance_separation_check",
    "build_exchange_operator", "check_exchange_commutation",
    "schwinger_check", "verify_pi_universality",
]

__version__ = "0.1.0"

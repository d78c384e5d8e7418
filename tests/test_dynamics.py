import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcforge import dynamics as dyn
from tcforge.dynamics import Circuit, Gate
from tcforge.qubits import CZ
from tcforge.sectors import SectorIndex, basis_labels
from tcforge.synthesis import f_gate, named_gate


def su2_block(t):
    c, s = np.cos(np.sqrt(2) * t), np.sin(np.sqrt(2) * t)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _tower_block(bu, jj, labels):
    """Rows and columns of bu's jj tower at the (jj, 2m, k) labels."""
    cols = {(k, mm): c for c, (k, mm) in enumerate(bu.columns[jj].tolist())}
    return bu.blocks[jj][np.ix_([k * (jj + 1) + (jj - mm) // 2 for _, mm, k in labels],
                                [cols[k, mm] for _, mm, k in labels])]


def _tower_identity(bu, jj):
    """The jj tower's kept columns of the identity."""
    cols = bu.columns[jj]
    want = np.zeros(bu.blocks[jj].shape)
    want[[k * (jj + 1) + (jj - mm) // 2 for k, mm in cols.tolist()], np.arange(len(cols))] = 1
    return want


def _gate_block(gate, idx):
    """Unitary of one gate on one charge sector."""
    return dyn.apply_circuit(Circuit(idx.n, [gate]), idx.q,
                             backend="charge").blocks[idx]


def test_gate_block_tc_charge1():
    for t in (0.3, -1.2, np.pi):
        b = _gate_block(Gate("tc", t), SectorIndex(2, 1, 2))
        assert np.allclose(b, su2_block(t), atol=1e-12)


def test_gate_block_tc_half_period():
    b = _gate_block(Gate("tc", np.pi / np.sqrt(6)), SectorIndex(2, 2, 2))
    want = np.array([[1 / 3, 0, -np.sqrt(8 / 9)],
                     [0, -1, 0],
                     [-np.sqrt(8 / 9), 0, -1 / 3]])
    assert np.allclose(b, want, atol=1e-12)


def test_gate_block_rz_and_rx_rejection():
    b = _gate_block(Gate("rz", 0.7), SectorIndex(2, 2, 2))
    assert np.allclose(b, np.diag(np.exp(-1j * 0.7 * np.array([1, 0, -1]))))
    with pytest.raises(ValueError):
        _gate_block(Gate("rx", 0.1), SectorIndex(2, 2, 2))
    with pytest.raises(ValueError):
        Gate("ry", 0.1)


def test_apply_circuit_rejects_rx_on_charge_and_unknown_backends():
    circ = Circuit(2, [Gate("tc", 0.4), Gate("rx", 0.3)])
    with pytest.raises(ValueError, match="use the jtower backend"):
        dyn.apply_circuit(circ, 3, backend="charge")
    for backend in ("tower", "Charge", None):
        with pytest.raises(ValueError, match="unknown backend"):
            dyn.apply_circuit(Circuit(2, [Gate("tc", 0.4)]), 3, backend=backend)


def test_charge_blocks_keep_the_sector_order():
    from tcforge.sectors import enumerate_sectors
    gates = [Gate("tc", 0.7), Gate("rz", -0.3), Gate("tc", 1.2)]
    for n in range(1, 6):
        for q_max in range(2 * n + 2):
            bu = dyn.apply_circuit(Circuit(n, gates), q_max, backend="charge")
            assert list(bu.blocks) == list(enumerate_sectors(n, q_max))


def test_empty_circuit_identity():
    bu = dyn.apply_circuit(Circuit(3), 4)
    for idx, b in bu.blocks.items():
        assert np.allclose(b, np.eye(idx.dim))


def test_f_gate_block_and_vacuum_phase():
    bu = dyn.apply_circuit(f_gate(), 3)
    want = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert np.abs(bu.blocks[SectorIndex(2, 2, 2)] - want).max() < 1e-9
    assert abs(bu.blocks[SectorIndex(2, 0, 2)][0, 0] - 1) < 1e-12
    # F Rz(θ) F puts the same phase on |00⟩⊗|0⟩ and |11⟩⊗|0⟩
    theta = 0.83
    circ = Circuit(2, f_gate().gates + (Gate("rz", theta),) + f_gate().gates)
    bu = dyn.apply_circuit(circ, 3)
    assert abs(bu.blocks[SectorIndex(2, 0, 2)][0, 0]
               - np.exp(1j * theta)) < 1e-9
    assert abs(bu.blocks[SectorIndex(2, 2, 2)][0, 0]
               - np.exp(1j * theta)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3),
       st.lists(st.tuples(st.sampled_from(["tc", "rz"]),
                          st.floats(-3, 3, allow_nan=False)), max_size=12))
def test_unitarity(n, gate_spec):
    circ = Circuit(n, [Gate(k, p) for k, p in gate_spec])
    bu = dyn.apply_circuit(circ, 6)
    assert bu.unitarity_defect() < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["tc", "rz", "rx"]),
                          st.floats(-2, 2, allow_nan=False)),
                min_size=1, max_size=8))
def test_reversed_circuit_inverts(gate_spec):
    circ = Circuit(2, [Gate(k, p) for k, p in gate_spec]
                   + [Gate(k, -p) for k, p in reversed(gate_spec)])
    bu = dyn.apply_circuit(circ, 3)
    for key, b in bu.blocks.items():
        want = _tower_identity(bu, key) if bu.backend == "jtower" else np.eye(len(b))
        assert np.abs(b - want).max() < 1e-9


def test_unitarity_defect_propagates_nan():
    # a NaN block must never read as unitary, wherever it sits
    ok = np.eye(1, dtype=complex)
    bad = np.full((2, 2), np.nan, dtype=complex)
    for blocks in ({SectorIndex(2, 1, 2): bad},
                   {SectorIndex(2, 0, 2): ok, SectorIndex(2, 1, 2): bad}):
        defect = dyn.BlockUnitary("charge", 2, 1, blocks).unitarity_defect()
        assert not (defect <= 1e-9)


def test_unitarity_defect_of_an_isometry():
    # jtower blocks are d × c isometries, so B†B is c × c
    iso = np.array([[1, 0], [0, np.sqrt(0.5)], [0, 1j * np.sqrt(0.5)]])
    wide = np.array([[1, 0], [0, 1], [0, 1.0]])
    defect = lambda b: dyn.BlockUnitary("jtower", 2, 2, {2: b}).unitarity_defect()
    assert defect(iso) < 1e-12
    assert defect(wide) == 1.0
    assert not (defect(np.full((3, 2), np.nan)) <= 1e-9)


def test_unitarity_long_circuit():
    rng = np.random.default_rng(12)
    gates = [Gate(str(rng.choice(["tc", "rz"])), float(rng.uniform(-3, 3)))
             for _ in range(100)]
    bu = dyn.apply_circuit(Circuit(3, gates), 8)
    assert bu.unitarity_defect() < 1e-9


def test_charge_vs_tower_backends():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        gates = [Gate(str(rng.choice(["tc", "rz"])),
                      float(rng.uniform(-2, 2))) for _ in range(15)]
        circ = Circuit(n, gates)
        ch = dyn.apply_circuit(circ, 6, backend="charge")
        tw = dyn.apply_circuit(circ, 6, backend="jtower")
        for idx, blk in ch.blocks.items():
            sub = _tower_block(tw, idx.jj, basis_labels(idx))
            assert np.abs(sub - blk).max() < 1e-9


def test_eigenstate_pinning():
    # |j, m=-j⟩⊗|0⟩ picks up exactly the rotation phase e^{i j Σθ}
    for n in (2, 3, 4):
        thetas = [0.9, -0.4, 1.7]
        gates = [Gate("tc", 0.6), Gate("rz", thetas[0]), Gate("tc", -1.1),
                 Gate("rz", thetas[1]), Gate("rz", thetas[2])]
        bu = dyn.apply_circuit(Circuit(n, gates), n)
        for jj in range(n % 2, n + 1, 2):
            idx = SectorIndex(n, (n - jj) // 2, jj)
            assert idx.dim == 1
            want = np.exp(1j * (jj / 2) * sum(thetas))
            assert abs(bu.blocks[idx][0, 0] - want) < 1e-12


def test_vacuum_sandwich_examples():
    vs = dyn.vacuum_sandwich(dyn.apply_circuit(Circuit(2), 2))
    assert vs.residual < 1e-12
    assert np.allclose(vs.matrix, np.eye(4))
    # a single coupling pulse leaks into the oscillator
    vs = dyn.vacuum_sandwich(dyn.apply_circuit(Circuit(2, [Gate("tc", 0.5)]), 2))
    assert vs.residual > 0.1
    # compiled CZ disentangles: sandwich equals CZ up to a global phase
    res = named_gate("cz")
    vs = dyn.vacuum_sandwich(dyn.apply_circuit(res.circuit, 2))
    assert vs.residual < 1e-8
    assert dyn.distance_up_to_phase(vs.matrix, CZ) < 1e-8


def test_distance_up_to_phase():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.normal(size=(4, 4))
                     + 1j * rng.normal(size=(4, 4)))[0]
    assert dyn.distance_up_to_phase(u, u) < 1e-12
    assert dyn.distance_up_to_phase(u, np.exp(1j * 0.7) * u) < 1e-12
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert abs(dyn.distance_up_to_phase(np.eye(2, dtype=complex), sx) - 2) < 1e-12
    with pytest.raises(ValueError):
        dyn.distance_up_to_phase(np.eye(2), np.eye(3))


def test_interaction_time():
    assert dyn.interaction_time(Circuit(2, [Gate("rz", 1.0)])) == 0
    f = f_gate()
    assert f.total_tc_time() == 3 * (np.pi / np.sqrt(6))
    assert abs(dyn.interaction_time(f) - 0.6124) < 1e-3
    swap = named_gate("swap")
    assert abs(swap.tau - 1.273) < 0.01


def test_circuit_json_round_trip_exact():
    circ = Circuit(2, [Gate("tc", np.pi / np.sqrt(6)), Gate("rz", -0.1),
                       Gate("rx", 1e-17)])
    again = Circuit.from_json(circ.to_json())
    assert again.n == circ.n
    for a, b in zip(again.gates, circ.gates):
        assert a.kind == b.kind and a.param == b.param


def test_circuit_json_round_trips_numpy_scalar_params():
    circ = Circuit(2, [Gate("tc", np.int64(3)), Gate("rz", np.float32(0.1))])
    assert all(type(g.param) is float for g in circ.gates)
    assert Circuit.from_json(circ.to_json()) == circ


def test_gate_rejects_non_finite_or_non_real_params():
    for bad in (np.nan, np.inf, -np.inf, 1j, True, "0.5", None):
        with pytest.raises(ValueError):
            Gate("tc", bad)
    for good in (0, 0.5, np.float64(-1.25), np.int64(3)):
        assert Gate("rz", good).param == good


def test_simplify_rejects_non_circuits():
    for bad in ([1, 2], (Gate("tc", 1.0),), None):
        with pytest.raises(ValueError, match="^circ must be a Circuit"):
            dyn.simplify(bad)


def test_circuit_rejects_bad_qubit_count_and_gates():
    for n in (True, 2.0, "2", 0, -1, None):
        with pytest.raises(ValueError, match="circuit n"):
            Circuit(n)
    with pytest.raises(ValueError, match="Gate objects"):
        Circuit(2, [("tc", 1.0)])
    circ = Circuit(np.int64(2), [Gate("tc", 1.0)])
    assert type(circ.n) is int and json.loads(circ.to_json())["n"] == 2


def test_evolve_vacuum_state_rejects_uncovered_or_non_finite_states():
    circ = Circuit(2, [Gate("tc", 1.0)])
    psi = np.array([1, 0, 0, 0])  # |00⟩⊗|0⟩ has q = 2
    for q_max in (0, 1):
        with pytest.raises(ValueError, match="q = 2 above q_max"):
            dyn.evolve_vacuum_state(circ, psi, q_max)
    pops = np.abs(dyn.evolve_vacuum_state(circ, psi, 2)) ** 2
    wider = np.abs(dyn.evolve_vacuum_state(circ, psi, 3)) ** 2
    assert np.allclose(wider[:, :pops.shape[1]], pops)
    assert np.allclose([pops[0, 0], pops[1, 1], pops[2, 1], pops[3, 2]],
                       [0.168, 0.068, 0.068, 0.696], atol=1e-3)
    # |11⟩⊗|0⟩ has q = 0: the vacuum of the coupling, on any truncation
    ground = dyn.evolve_vacuum_state(circ, np.array([0, 0, 0, 1]), 0)
    assert ground.shape == (4, 1) and abs(ground[3, 0] - 1) < 1e-12
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            dyn.evolve_vacuum_state(circ, np.array([bad, 0, 0, 0]), 2)
    for wrong in (np.ones(8), np.ones(2), np.ones((2, 2))):
        with pytest.raises(ValueError, match="^state must have length 4$"):
            dyn.evolve_vacuum_state(circ, wrong, 3)


@pytest.mark.parametrize("backend", ["charge", "jtower"])
def test_vacuum_sandwich_needs_q_max_at_least_n_on_both_backends(backend):
    # below q_max = n the towers miss states |j,m⟩⊗|0⟩; on jtower that once
    # read a wrong matrix (max deviation 1.47 at n = 3, q_max = 0) with a
    # unitary-looking residual
    circ = Circuit(3, [Gate("tc", 0.9), Gate("rz", 0.4), Gate("tc", -1.3)])
    for q_max in (0, 2):
        with pytest.raises(ValueError, match="q_max ≥ n = 3"):
            dyn.vacuum_sandwich(dyn.apply_circuit(circ, q_max, backend=backend))
    at_n, wider = (dyn.vacuum_sandwich(dyn.apply_circuit(circ, q_max, backend=backend))
                   for q_max in (3, 5))
    assert np.abs(at_n.matrix - wider.matrix).max() < 1e-12


@pytest.mark.parametrize("q_max", [np.nan, 2.5, "3", None, True],
                         ids=["nan", "float", "str", "none", "bool"])
def test_q_max_must_be_an_integer(q_max):
    # nan once evolved silently at k_max = max(0, nan) = 0
    circ = Circuit(2, [Gate("tc", 1.0), Gate("rx", 0.3)])
    psi = np.array([0, 0, 0, 1.0])
    for backend in ("charge", "jtower"):
        with pytest.raises(ValueError, match="^q_max must be an integer ≥ 0, got"):
            dyn.apply_circuit(Circuit(2, [Gate("tc", 1.0)]), q_max, backend=backend)
    with pytest.raises(ValueError, match="^q_max must be an integer ≥ 0, got"):
        dyn.evolve_vacuum_state(circ, psi, q_max)
    assert dyn.apply_circuit(circ, np.int64(2)).q_max == 2
    assert np.array_equal(dyn.evolve_vacuum_state(circ, psi, np.int64(2)),
                          dyn.evolve_vacuum_state(circ, psi, 2))


def test_from_json_rejects_bad_qubit_count():
    for n in (2.7, 2.0, 0, -1, True, "2"):
        with pytest.raises(ValueError):
            Circuit.from_json('{"n": %s, "gates": []}' % json.dumps(n))
    with pytest.raises(ValueError):
        Circuit.from_json('{"n": 2, "gates": [{"kind": "tc", "param": NaN}]}')


def test_int_params_beyond_float_range_raise_value_error():
    huge = 10 ** 400  # float(huge) raises OverflowError
    with pytest.raises(ValueError, match="finite real number"):
        Gate("tc", huge)
    with pytest.raises(ValueError, match="finite real number"):
        Circuit.from_json('{"n": 2, "gates": [{"kind": "tc", "param": %d}]}' % huge)


def test_from_json_reads_int_params_as_floats():
    circ = Circuit.from_json('{"n": 2, "gates": [{"kind": "tc", "param": 1}]}')
    assert circ.gates == (Gate("tc", 1.0),)
    assert type(circ.gates[0].param) is float


@pytest.mark.parametrize("payload", [
    {"n": 2, "gates": [{"kind": "tc", "param": True}]},  # float(True) is 1.0
    {"n": 2, "gates": [{"kind": "tc", "param": "1.5"}]},  # float("1.5") is 1.5
    {"n": 2, "gates": [{"kind": "tc", "param": None}]},
    {"n": 2, "gates": [{"kind": "tc", "param": [1.0]}]},
    {"n": 2, "gates": [{"kind": "tc", "param": 1.0, "unit": "ns"}]},
    {"n": 2, "gates": [{"kind": "tc"}]},
    {"n": 2, "gates": [{"kind": "cnot", "param": 1.0}]},
    {"n": 2, "gates": ["tc"]},
    {"n": 2, "gates": {"kind": "tc", "param": 1.0}},
    {"n": 2, "gates": [], "version": 1},
    {"n": 2},
    {"gates": []},
    [2, []],
], ids=["bool-param", "string-param", "null-param", "list-param",
        "unknown-gate-key", "missing-param", "unknown-kind", "gate-not-object",
        "gates-not-list", "unknown-top-level-key", "missing-gates",
        "missing-n", "not-an-object"])
def test_from_json_rejects_malformed_circuits(payload):
    with pytest.raises(ValueError):
        Circuit.from_json(json.dumps(payload))


@settings(max_examples=50)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), max_size=8))
def test_json_params_bit_exact(params):
    circ = Circuit(2, [Gate("tc", p) for p in params])
    again = Circuit.from_json(circ.to_json())
    assert [g.param for g in again.gates] == [g.param for g in circ.gates]


def test_simplify_merges():
    circ = Circuit(2, [Gate("tc", 0.5), Gate("tc", -0.5), Gate("rz", 0.1),
                       Gate("rz", 0.2), Gate("tc", 1.0)])
    out = dyn.simplify(circ)
    assert [(g.kind, g.param) for g in out.gates] == [
        ("rz", 0.30000000000000004), ("tc", 1.0)]


def test_tower_k_max_growth():
    # rx after a coupling pulse widens the required window by 2j per run
    base = Circuit(2, [Gate("tc", 1.0)])
    assert dyn.tower_k_max(base, 2, 2) == 2
    grown = Circuit(2, [Gate("rx", 1.0), Gate("tc", 1.0)])
    assert dyn.tower_k_max(grown, 2, 2) == 4
    two_runs = Circuit(2, [Gate("rx", 1.0), Gate("tc", 1.0), Gate("rx", 0.5),
                           Gate("tc", 0.2), Gate("tc", 0.1)])
    assert dyn.tower_k_max(two_runs, 2, 2) == 6


@pytest.mark.parametrize("n,start", [(2, 0), (3, 5)])
def test_rx_circuit_exact_on_tower(n, start):
    # the widened truncation reproduces a brute-force dense simulation
    from tcforge.qubits import spin_ops, htc_full
    k_cut = 14
    circ = Circuit(n, [Gate("rx", 0.8), Gate("tc", 0.9), Gate("rz", 0.3),
                       Gate("rx", -0.5), Gate("tc", 0.4)])
    psi0 = np.zeros(2 ** n, dtype=complex)
    psi0[start] = 1.0
    joint = dyn.evolve_vacuum_state(circ, psi0, q_max=n)
    # dense reference
    jx, _, jz = spin_ops(n)
    h_full = htc_full(n, k_cut)
    state = np.zeros(2 ** n * (k_cut + 1), dtype=complex)
    state[start * (k_cut + 1)] = 1.0
    for g in circ.gates:
        if g.kind == "tc":
            hop = h_full
        elif g.kind == "rz":
            hop = np.kron(jz, np.eye(k_cut + 1))
        else:
            hop = np.kron(jx, np.eye(k_cut + 1))
        w, v = np.linalg.eigh(hop)
        state = (v * np.exp(-1j * g.param * w)) @ (v.conj().T @ state)
    ref = state.reshape(2 ** n, k_cut + 1)
    kk = joint.shape[1]
    assert np.abs(joint - ref[:, :kk]).max() < 1e-9
    assert np.abs(ref[:, kk:]).max() < 1e-9


def test_jtower_keeps_exactly_the_columns_its_cutoff_makes_exact():
    # tower_k_max is exact for the columns of charge q ≤ q_max: those equal a
    # much wider truncation's, and the other columns of the same tower do not
    from tcforge.sectors import enumerate_sectors
    n, q_max = 4, 4
    circ = Circuit(n, [Gate("tc", 0.9), Gate("rx", 0.7), Gate("tc", -1.3),
                       Gate("rz", 0.4), Gate("rx", -0.6), Gate("tc", 1.1)])
    bu = dyn.apply_circuit(circ, q_max, backend="jtower")
    wide = dyn.apply_circuit(circ, q_max + 20, backend="jtower")
    dropped_gap = 0.0
    for jj, block in bu.blocks.items():
        kept = [(jj, mm, k) for k, mm in bu.columns[jj].tolist()]
        sectors = [idx for idx in enumerate_sectors(n, q_max) if idx.jj == jj]
        assert block.shape[1] == sum(idx.dim for idx in sectors)
        assert sorted(kept) == sorted(lab for idx in sectors for lab in basis_labels(idx))
        # every tower column at the same k_max, as the square tower had them
        k_max, d = bu.k_max[jj], len(block)
        every = np.ones((k_max + 1, jj + 1), bool)
        square = dyn._evolve(circ.gates, jj, k_max, every).reshape(d, d)
        wide_col = {(k, mm): c for c, (k, mm) in enumerate(wide.columns[jj].tolist())}
        for k in range(k_max + 1):
            for mm in range(jj, -jj - 2, -2):
                ref = wide.blocks[jj][:, wide_col[k, mm]]
                gap = np.abs(square[:, k * (jj + 1) + (jj - mm) // 2] - ref[:d]).max()
                if (jj, mm, k) in kept:
                    assert gap <= 1e-13 and np.abs(ref[d:]).max() <= 1e-13
                    column = block[:, kept.index((jj, mm, k))]
                    assert np.abs(column - ref[:d]).max() <= 1e-13
                else:
                    dropped_gap = max(dropped_gap, gap)
    assert dropped_gap > 1e-3


def test_jtower_skips_spins_without_an_exact_column():
    # n = 3, q_max = 0: only |3/2, -3/2⟩⊗|0⟩ has charge 0, and the lowest
    # charge of the j = 1/2 tower is 1, so that spin has no block
    circ = Circuit(3, [Gate("rx", 0.5), Gate("tc", 0.8)])
    bu = dyn.apply_circuit(circ, 0, backend="jtower")
    assert list(bu.blocks) == [3] and bu.columns[3].tolist() == [[0, -3]]
    assert bu.unitarity_defect() < 1e-12


def _brute_force(circ, k_cut):
    """Dense product of the gates on (C^2)^⊗n ⊗ Fock(k ≤ k_cut)."""
    from tcforge.qubits import htc_full, spin_ops
    jx, _, jz = spin_ops(circ.n)
    gens = {"tc": htc_full(circ.n, k_cut),
            "rz": np.kron(jz, np.eye(k_cut + 1)),
            "rx": np.kron(jx, np.eye(k_cut + 1))}
    u = np.eye(2 ** circ.n * (k_cut + 1), dtype=complex)
    for g in circ.gates:
        w, v = np.linalg.eigh(gens[g.kind])
        u = (v * np.exp(-1j * g.param * w)) @ (v.conj().T @ u)
    return u


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(["tc", "rz", "rx"]),
                          st.floats(-2, 2, allow_nan=False)), max_size=6),
       st.integers(0, 7))
def test_structured_evolution_matches_brute_force(n, gate_spec, start):
    from tcforge.qubits import project_full
    from tcforge.sectors import enumerate_sectors
    circ = Circuit(n, [Gate(k, p) for k, p in gate_spec])
    # one level above the widest tower, so the cutoff never binds
    k_cut = dyn.tower_k_max(circ, n, n) + 1
    u = _brute_force(circ, k_cut)
    psi0 = np.zeros(2 ** n, dtype=complex)
    psi0[start % 2 ** n] = 1.0
    joint = dyn.evolve_vacuum_state(circ, psi0, q_max=n)
    ref = u[:, (start % 2 ** n) * (k_cut + 1)].reshape(2 ** n, k_cut + 1)
    kk = joint.shape[1]
    assert np.abs(joint - ref[:, :kk]).max() < 1e-9
    assert np.abs(ref[:, kk:]).max() < 1e-9
    if circ.has_rx():
        return
    q_max = 3
    u = _brute_force(circ, q_max)
    ch = dyn.apply_circuit(circ, q_max, backend="charge")
    tw = dyn.apply_circuit(circ, q_max, backend="jtower")
    for idx in enumerate_sectors(n, q_max):
        want = project_full(u, idx, q_max)
        assert np.abs(ch.blocks[idx] - want).max() < 1e-9
        assert np.abs(_tower_block(tw, idx.jj, basis_labels(idx)) - want).max() < 1e-9


# ------------------------------------------- references for the block paths
# Dense formulas for _tc_eig, assemble_pi and the vacuum residual.

def _tc_eig_by_tower_scatter(jj, k_max):
    """Diagonal blocks scattered out of the dense D×D tower coupling."""
    from tcforge import operators as ops
    s, r = (a.ravel() for a in dyn._skew(jj, k_max))
    h = ops.htc_tower(jj, k_max)
    a, b = np.nonzero(h)
    blocks = np.zeros((jj + k_max + 1, jj + 1, jj + 1))
    blocks[s[a], r[a], r[b]] = h[a, b]
    return np.linalg.eigh(blocks)


def test_tc_eig_matches_tower_scatter():
    for jj in range(13):
        for k_max in range(0, 50, 7):
            w, v, vt = dyn._tc_eig(jj, k_max)
            w_ref, v_ref = _tc_eig_by_tower_scatter(jj, k_max)
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
            assert np.array_equal(vt, v_ref.transpose(0, 2, 1))


def test_tc_eig_caches_real_read_only_factors():
    for jj, k_max in [(0, 0), (0, 3), (1, 2), (4, 7), (12, 20)]:
        w, v, vt = dyn._tc_eig(jj, k_max)
        for a in (w, v, vt):
            assert a.dtype == np.float64 and not a.flags.writeable
        assert np.array_equal(vt, v.transpose(0, 2, 1))


def test_float_view_pulse_matches_the_complex_product():
    # one tc after a seeded run, against (v diag p)(vt run) in complex: after
    # no gate (a first tc), after rz only (a 2-D run) and after a 3-D stack
    rng = np.random.default_rng(21)
    for jj, k_max in [(0, 0), (0, 4), (1, 3), (2, 2), (3, 5), (6, 9)]:
        size = jj + k_max + 1
        w, v, vt = dyn._tc_eig(jj, k_max)
        for lead in ([], ["rz", "rz"], ["tc", "rz", "tc"], ["rz", "tc", "rz"]):
            gates = [Gate(k, float(rng.uniform(-2, 2))) for k in lead]
            r = float(rng.uniform(-2, 2))
            before = dyn._run(gates, jj, k_max, size)
            want = ((v * np.exp(-1j * r * w)[:, None, :])
                    @ (vt.astype(complex) @ before))
            got = dyn._run(gates + [Gate("tc", r)], jj, k_max, size)
            assert got.shape == (size, jj + 1, jj + 1)
            assert np.abs(got - want).max() <= 1e-14, (jj, k_max, lead)


def test_apply_circuit_never_builds_the_dense_tower(monkeypatch):
    from tcforge import operators as ops

    def dense(*args):
        raise AssertionError("htc_tower called")

    monkeypatch.setattr(ops, "htc_tower", dense)
    dyn._tc_eig.cache_clear()  # every key a cache miss
    gates = [Gate("tc", 0.7), Gate("rz", 0.3), Gate("tc", -1.2)]
    for backend in ("charge", "jtower"):
        dyn.apply_circuit(Circuit(3, gates), 4, backend=backend)
    dyn.apply_circuit(Circuit(3, gates + [Gate("rx", 0.4), Gate("tc", 0.5)]), 4)


def _assemble_pi_by_outer_products(n, u_by_j):
    """⊕_j I_mult ⊗ u_j as one outer product of frames per nonzero of u_j."""
    from tcforge.qubits import jm_basis
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for jj, u in u_by_j.items():
        frames = jm_basis(n)[jj]
        for r, c in zip(*np.nonzero(u)):
            out += u[r, c] * (frames[r] @ frames[c].conj().T)
    return out


def _seeded_circuits(seed, count, kinds):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        yield Circuit(n, [Gate(str(rng.choice(kinds)), float(rng.uniform(-2, 2)))
                          for _ in range(int(rng.integers(1, 12)))])


def test_vacuum_sandwich_matches_dense_reference():
    cases = [(circ, backend) for circ in _seeded_circuits(11, 20, ["tc", "rz"])
             for backend in ("charge", "jtower")]
    cases += [(circ, "jtower") for circ in _seeded_circuits(12, 20, ["tc", "rz", "rx"])]
    for circ, backend in cases:
        vs = dyn.vacuum_sandwich(dyn.apply_circuit(circ, circ.n, backend=backend))
        mat = _assemble_pi_by_outer_products(circ.n, vs.u_by_j)
        dense = np.linalg.norm(mat.conj().T @ mat - np.eye(2 ** circ.n))
        assert abs(vs.residual - dense) <= 1e-13 * max(1.0, dense)
        assert np.abs(vs.matrix - mat).max() <= 1e-14


def test_vacuum_sandwich_backends_agree_bit_for_bit():
    for circ in _seeded_circuits(13, 40, ["tc", "rz"]):
        ch = dyn.vacuum_sandwich(dyn.apply_circuit(circ, circ.n, backend="charge"))
        tw = dyn.vacuum_sandwich(dyn.apply_circuit(circ, circ.n, backend="jtower"))
        assert tw.residual == ch.residual
        assert np.array_equal(tw.matrix, ch.matrix)


def test_vacuum_sandwich_assembles_its_matrix_on_first_read(monkeypatch):
    calls, assemble_pi = [], dyn.assemble_pi

    def counting(n, u_by_j):
        calls.append(n)
        return assemble_pi(n, u_by_j)

    monkeypatch.setattr(dyn, "assemble_pi", counting)
    circ = Circuit(3, [Gate("tc", 0.8), Gate("rz", 0.3), Gate("tc", -0.5)])
    for backend in ("charge", "jtower"):
        calls.clear()
        vs = dyn.vacuum_sandwich(dyn.apply_circuit(circ, 3, backend=backend))
        assert vs.residual > 0 and calls == []
        first = vs.matrix
        assert vs.matrix is first and calls == [3]
        assert np.array_equal(first, assemble_pi(3, vs.u_by_j))


def test_ghz_vacuum_sandwich_matches_brute_force():
    from tcforge.synthesis import ghz_circuit
    circ, k_cut = ghz_circuit(), 8
    vac = np.arange(2 ** circ.n) * (k_cut + 1)  # |b⟩⊗|0⟩ rows of the dense space
    want = _brute_force(circ, k_cut)[np.ix_(vac, vac)]
    vs = dyn.vacuum_sandwich(dyn.apply_circuit(circ, circ.n))
    assert np.abs(vs.matrix - want).max() < 1e-12
    assert vs.residual < 1e-12


# ------------------------------------ reference for the identity-free runs
# The evolution gate by gate, each run of tc/rz multiplied out from the
# identity and then into x, x the identity columns for both backends.  The
# fast path skips those identity products and takes each run's phases from
# one exp per gate kind, in the same matmul order, so values are equal.

def _evolve_with_identity(gates, jj, k_max, x):
    w, v, vt = (a[:len(x)] for a in dyn._tc_eig(jj, k_max))
    m = jj / 2 - np.arange(jj + 1)
    ident = np.tile(np.eye(jj + 1, dtype=complex), (len(w), 1, 1))
    run = ident
    for g in gates:
        if g.kind == "tc":  # v diag(p) vt as real products on float views
            y = (vt @ run.view(float)).view(complex) * np.exp(-1j * g.param * w)[:, :, None]
            run = (v @ y.view(float)).view(complex)
        elif g.kind == "rz":
            run = np.exp(-1j * g.param * m)[:, None] * run
        else:
            wx, vx = dyn._rx_eig(jj)
            slots = dyn._skew(jj, k_max)
            tower = (vx * np.exp(-1j * g.param * wx)) @ vx.T @ (run @ x)[slots]
            x = np.zeros_like(x)
            x[slots] = tower
            run = ident
    return run @ x


def _blocks_with_identity(circ, q_max, backend):
    from tcforge.sectors import enumerate_sectors
    n, blocks = circ.n, {}
    if backend == "charge":
        for idx in enumerate_sectors(n, q_max):
            k_max = q_max + (idx.jj - n) // 2
            x = np.broadcast_to(np.eye(idx.jj + 1), (k_max + 1, idx.jj + 1, idx.jj + 1))
            s = idx.q - (n - idx.jj) // 2
            r0 = max(0, idx.jj - s)
            blocks[idx] = _evolve_with_identity(circ.gates, idx.jj, k_max, x)[s, r0:, r0:]
        return blocks
    for jj in dyn._spins(n):
        k0 = q_max + (jj - n) // 2  # the exact columns lie on diagonals s ≤ k0
        if k0 < 0:
            continue
        k_max = dyn.tower_k_max(circ, q_max, jj)
        s, r = dyn._skew(jj, k_max)
        keep = s <= k0
        x = np.zeros((jj + k_max + 1, jj + 1, np.count_nonzero(keep)), dtype=complex)
        x[s[keep], r[keep], np.arange(x.shape[2])] = 1.0
        out = _evolve_with_identity(circ.gates, jj, k_max, x)[s, r]
        blocks[jj] = out.reshape(-1, x.shape[2])
    return blocks


def _columns_with_identity(gates, jj, k_max, cols):
    """The tower [k, r, c] of the identity columns at the [k, r] mask cols."""
    s, r = dyn._skew(jj, k_max)
    x = np.zeros((jj + k_max + 1, jj + 1, np.count_nonzero(cols)), dtype=complex)
    x[s[cols], r[cols], np.arange(x.shape[2])] = 1.0
    return _evolve_with_identity(gates, jj, k_max, x)[s, r]


def _vacuum_mask(jj, k_max):
    """The [k, r] mask of the vacuum slots k = 0."""
    cols = np.zeros((k_max + 1, jj + 1), bool)
    cols[0] = True
    return cols


def _vacuum_state_with_identity(circ, psi, q_max):
    # the 2j+1 vacuum columns of each spin, then the state's coefficients
    from tcforge.qubits import jm_basis
    k_maxes = {jj: dyn.tower_k_max(circ, q_max, jj) for jj in dyn._spins(circ.n)}
    joint = np.zeros((2 ** circ.n, max(k_maxes.values()) + 1), dtype=complex)
    for jj, k_max in k_maxes.items():
        frames = jm_basis(circ.n)[jj]
        tower = _columns_with_identity(circ.gates, jj, k_max, _vacuum_mask(jj, k_max))
        # Fᵀψ on ψ's float view, as evolve_vacuum_state takes it
        state = tower @ (frames.transpose(0, 2, 1)
                         @ psi.view(float).reshape(-1, 2)).view(complex)[..., 0]
        joint[:, :k_max + 1] += (frames @ state.transpose(1, 2, 0)).sum(0)
    return joint


def _kind_sequences(rng):
    """Gate-kind lists covering every way runs start and end."""
    yield []
    for _ in range(25):
        length = int(rng.integers(1, 10))
        yield ["rz"] * length
        yield ["tc"] * length
        yield ["rz", "rz"] + [str(k) for k in rng.choice(["tc", "rz"], length)]
        mixed = [str(k) for k in rng.choice(["tc", "rz", "rx"], length)]
        yield mixed
        yield ["rx"] + mixed
        yield mixed + ["rx"]
        yield ["rx", "rx"] + mixed + ["rz", "rz"]


def test_identity_free_evolution_matches_reference_exactly():
    rng = np.random.default_rng(14)
    for kinds in _kind_sequences(rng):
        n = int(rng.integers(1, 7))
        q_max = int(rng.integers(0, 2 * n + 2))
        circ = Circuit(n, [Gate(k, float(rng.uniform(-2, 2))) for k in kinds])
        for backend in ("jtower",) if circ.has_rx() else ("charge", "jtower"):
            bu = dyn.apply_circuit(circ, q_max, backend=backend)
            want = _blocks_with_identity(circ, q_max, backend)
            assert bu.blocks.keys() == want.keys()
            for key, block in want.items():
                assert np.array_equal(bu.blocks[key], block), (kinds, backend, key)
            if q_max >= n:
                vs = dyn.vacuum_sandwich(bu)
                ref = dyn.vacuum_sandwich(dyn.BlockUnitary(
                    backend, n, q_max, want, bu.k_max))
                assert np.array_equal(vs.matrix, ref.matrix)
                assert vs.residual == ref.residual
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        psi[rng.random(2 ** n) < 0.3] = 0
        q_state = int(rng.integers(n, 2 * n + 2))
        assert np.array_equal(dyn.evolve_vacuum_state(circ, psi, q_state),
                              _vacuum_state_with_identity(circ, psi, q_state))


def test_bounded_evolution_equals_the_unbounded_one():
    # top bounds the diagonals runs and rx touch; the values must not move
    rng = np.random.default_rng(15)
    for kinds in _kind_sequences(rng):
        if "rx" not in kinds:
            continue
        n = int(rng.integers(1, 7))
        q_max = int(rng.integers(0, 2 * n + 2))
        circ = Circuit(n, [Gate(k, float(rng.uniform(-2, 2))) for k in kinds])
        for jj, k0, k_max, _ in dyn._towers(circ, q_max):
            # the jtower columns, on the diagonals s ≤ k0, and the vacuum ones
            for cols in (dyn._skew(jj, k_max)[0] <= k0, _vacuum_mask(jj, k_max)):
                assert np.array_equal(dyn._evolve(circ.gates, jj, k_max, cols),
                                      _columns_with_identity(circ.gates, jj, k_max, cols))


def test_tower_is_a_writable_view_of_the_r_major_state():
    # slot (k, r) of the tower is x[r, s = k - r + 2j], with no copy
    rng = np.random.default_rng(19)
    for jj in range(7):
        for k_max in (0, 1, 2, 5):
            slots = dyn._skew(jj, k_max)
            for rows in range(1, k_max + 2):
                x = rng.normal(size=(jj + 1, jj + k_max + 1, 3)) + 0j
                before = x.copy()
                tower = dyn._tower(x, jj, rows)
                assert np.array_equal(tower, x.transpose(1, 0, 2)[slots][:rows])
                assert np.shares_memory(tower, x)
                tower *= -1
                want = before.transpose(1, 0, 2).copy()
                want[tuple(a[:rows] for a in slots)] *= -1
                assert np.array_equal(x, want.transpose(1, 0, 2))


def test_singlet_is_dark_on_every_backend():
    # every native gate is exactly 1 on 2j = 0: its jtower block is the
    # identity columns and its charge sectors are [[1]], bit for bit
    rng = np.random.default_rng(20)
    for kinds in _kind_sequences(rng):
        n = 2 * int(rng.integers(1, 4))
        q_max = int(rng.integers(n // 2, 2 * n + 2))
        circ = Circuit(n, [Gate(k, float(rng.uniform(-2, 2))) for k in kinds])
        bu = dyn.apply_circuit(circ, q_max, backend="jtower")
        assert np.array_equal(bu.blocks[0], _tower_identity(bu, 0)), kinds
        rx_free = Circuit(n, [g for g in circ.gates if g.kind != "rx"])
        ch = dyn.apply_circuit(rx_free, q_max, backend="charge")
        singlets = [idx for idx in ch.blocks if idx.jj == 0]
        assert singlets
        for idx in singlets:
            assert np.array_equal(ch.blocks[idx], [[1]]), (kinds, idx)


def test_singlet_state_matches_brute_force():
    # (|01> - |10>)/√2 on vacuum, against the dense 2^n ⊗ Fock evolution
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    rng = np.random.default_rng(21)
    for kinds in _kind_sequences(rng):
        circ = Circuit(2, [Gate(k, float(rng.uniform(-2, 2))) for k in kinds])
        joint = dyn.evolve_vacuum_state(circ, psi, q_max=2)
        k_cut = dyn.tower_k_max(circ, 2, 2) + 1
        ref = _brute_force(circ, k_cut) @ np.kron(psi, np.eye(k_cut + 1)[0])
        ref = ref.reshape(4, k_cut + 1)
        assert np.abs(joint - ref[:, :joint.shape[1]]).max() <= 1e-13, kinds
        assert np.abs(ref[:, joint.shape[1]:]).max(initial=0.0) <= 1e-13


def test_vacuum_state_below_charge_n_matches_brute_force():
    # with q_max < n the vacuum columns of charge above q_max evolve on a
    # tower too short for them; they are exact only through their zero weight
    rng = np.random.default_rng(22)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        kinds = [str(k) for k in rng.permutation(
            ["rx", "tc"] + list(rng.choice(["tc", "rz", "rx"], 4)))]
        circ = Circuit(n, [Gate(k, float(rng.uniform(-2, 2))) for k in kinds])
        q_max = int(rng.integers(0, n))
        zeros = np.array([n - b.bit_count() for b in range(2 ** n)])
        psi = (rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)) * (zeros <= q_max)
        joint = dyn.evolve_vacuum_state(circ, psi, q_max)
        k_cut = joint.shape[1]
        ref = _brute_force(circ, k_cut) @ np.kron(psi, np.eye(k_cut + 1)[0])
        ref = ref.reshape(2 ** n, k_cut + 1)
        assert np.abs(joint - ref[:, :k_cut]).max() <= 1e-13, (kinds, q_max)
        assert np.abs(ref[:, k_cut:]).max() <= 1e-13
        # on vacuum out, the same state as the jtower backend's sandwich
        for q in (n, n + 2):
            vs = dyn.vacuum_sandwich(dyn.apply_circuit(circ, q, "jtower"))
            gap = np.abs(dyn.evolve_vacuum_state(circ, psi, q)[:, 0] - vs.matrix @ psi)
            assert gap.max() <= 1e-13, (kinds, q)

"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one summary line
per criterion.
"""

import time

import numpy as np

from tcforge import dynamics as dyn, liealg as la, realizability as rz, \
    synthesis as syn
from tcforge.dynamics import Circuit, Gate
from tcforge.operators import htc_block, jz_block
from tcforge.qubits import CZ, ISWAP, SQRT_ISWAP, SWAP, htc_full, \
    project_full
from tcforge.sectors import (SectorIndex, accidental_pairs, enumerate_sectors,
                             j_min2, sector_dim)


def report(num, label, ok, detail=""):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_gate_time_table():
    t0 = time.time()
    published = {"cz": (2.866, CZ), "swap": (1.273, SWAP),
                 "iswap": (2.546, ISWAP), "sqrt_iswap": (2.688, SQRT_ISWAP)}
    worst_tau, worst_dist = 0.0, 0.0
    for name, (pub, target) in published.items():
        res = syn.named_gate(name)
        vs = dyn.vacuum_sandwich(dyn.apply_circuit(res.circuit, 2))
        worst_tau = max(worst_tau, abs(res.tau - pub))
        worst_dist = max(worst_dist, dyn.distance_up_to_phase(vs.matrix,
                                                              target))
    elapsed = time.time() - t0
    ok = worst_tau <= 0.01 and worst_dist < 1e-8 and elapsed < 10
    report(1, "gate-time table", ok,
           f"max |tau-pub| = {worst_tau:.4f}, max dist = {worst_dist:.2e}, "
           f"{elapsed:.1f} s")


def test_criterion_2_f_gate_exact():
    circ = syn.f_gate()
    bu = dyn.apply_circuit(circ, 2)
    want = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    dev = np.abs(bu.blocks[SectorIndex(2, 2, 2)] - want).max()
    tau_exact = circ.total_tc_time() == 3 * (np.pi / np.sqrt(6))
    ok = dev < 1e-9 and bool(tau_exact)
    report(2, "f-gate exactness", ok,
           f"block dev = {dev:.2e}, tau exact = {tau_exact}")


def test_criterion_3_matrix_element_oracle():
    worst = 0.0
    for n in range(1, 7):
        k_cut = 12
        h_full = htc_full(n, k_cut)
        for idx in enumerate_sectors(n, 12):
            brute = project_full(h_full, idx, k_cut)
            dev = np.abs(brute - htc_block(idx)).max()
            worst = max(worst, float(dev))
    # multiplicity copies carry identical blocks (spot check, n = 4, j = 1)
    idx = SectorIndex(4, 3, 2)
    h_full = htc_full(4, 6)
    for alpha in range(1, 3):
        dev = np.abs(project_full(h_full, idx, 6, alpha)
                     - project_full(h_full, idx, 6, 0)).max()
        worst = max(worst, float(dev))
    ok = worst < 1e-10
    report(3, "matrix-element oracle", ok, f"max dev = {worst:.2e}")


def test_criterion_4_accidental_symmetry():
    t0 = time.time()
    ok = True
    detail = []
    for n in range(2, 7):
        for unfilled, filled in accidental_pairs(n, 12):
            if not np.array_equal(htc_block(unfilled), htc_block(filled)):
                ok = False
                detail.append(f"coupling mismatch {unfilled}")
            shift = (filled.jj - unfilled.jj) / 2
            zdev = np.abs(jz_block(unfilled) - jz_block(filled) - shift).max()
            if zdev > 1e-12:
                ok = False
                detail.append(f"z-shift mismatch {unfilled}")
        rep = la.variance_separation_check(n, 12)
        if not rep.ok:
            ok = False
            detail.append(f"variance separation failed at n={n}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    report(4, "accidental symmetry", ok,
           f"{'; '.join(detail) or 'all pairs exact'}, {elapsed:.1f} s")


def test_criterion_5_exchange_operator():
    worst = 0.0
    jz_ok = True
    for n in (3, 4, 5, 6):
        rep = la.check_exchange_commutation(n, 12)
        worst = max(worst, rep.comm_norm)
        jz_ok = jz_ok and rep.jz_commutation_exact
    ok = worst < 1e-9 and jz_ok
    report(5, "exchange operator", ok,
           f"max |[H,S]| = {worst:.2e}, z-shift exact = {jz_ok}")


def test_criterion_6_lie_universality():
    rank_ok = True
    for n in range(2, 6):
        for idx in enumerate_sectors(n, 12):
            if 2 <= sector_dim(idx) <= 7:
                rank_ok = rank_ok and la.sector_rank_check(idx)
    anh_ok = True
    for n in range(1, 7):
        for idx in enumerate_sectors(n, 12):
            rep = la.anharmonicity_check(idx)
            anh_ok = anh_ok and rep.matches_closed_form
            if sector_dim(idx) >= 2:
                anh_ok = anh_ok and rep.condition_holds
    ok = rank_ok and anh_ok
    report(6, "lie universality", ok,
           f"ranks = {rank_ok}, ladder differences exact = {anh_ok}")


def test_criterion_7_realizability_gap():
    ok = True
    rng = np.random.default_rng(1234)
    for n in range(2, 9):
        if rz.constraint_gap(n) != max(0, n // 2 - 1):
            ok = False
        if rz.check_pi_u1(rz.cz_controlled_target(n)).realizable != (n < 4):
            ok = False
        if not rz.check_pi_u1(rz.anti_cz_target(n)).realizable:
            ok = False
    for n in (2, 3):
        for _ in range(50):
            phases = {(jj, mm): float(rng.uniform(0, 2 * np.pi))
                      for jj in range(j_min2(n), n + 1, 2)
                      for mm in range(-jj, jj + 1, 2)}
            if not rz.check_pi_u1(rz.PiU1Target(n, phases)).realizable:
                ok = False
    report(7, "realizability gap", ok, "gap, cz family and n=2,3 agree")


def test_criterion_8_round_trip_soundness():
    t0 = time.time()
    rng = np.random.default_rng(77)
    accept_ok = True
    for trial in range(200):
        n = int(rng.integers(2, 5))
        q_max = int(rng.integers(2, 9))
        gates = [Gate(str(rng.choice(["tc", "rz"])),
                      float(rng.uniform(-2, 2)))
                 for _ in range(int(rng.integers(1, 31)))]
        bu = dyn.apply_circuit(Circuit(n, gates), q_max, backend="charge")
        v = rz.check_block_target(rz.block_target_from_unitary(bu))
        if not (v.realizable and v.alpha is not None and v.beta is not None):
            accept_ok = False
    worst_res, worst_tau = 0.0, 0.0
    for trial in range(1000):
        phis = rng.uniform(-np.pi, np.pi, 3)
        res = syn.compile_two_qubit(*phis)
        worst_res = max(worst_res, res.residual)
        worst_tau = max(worst_tau, res.tau)
    elapsed = time.time() - t0
    ok = (accept_ok and worst_res < 1e-8 and worst_tau <= 3.92
          and elapsed < 60)
    report(8, "round-trip soundness", ok,
           f"200 circuits accepted = {accept_ok}, max residual = "
           f"{worst_res:.2e}, max tau = {worst_tau:.3f}, {elapsed:.1f} s")


def test_criterion_9_qubit_oscillator_swap():
    res = syn.qubit_osc_swap()
    triplet = {2: np.array([1, 0, 0, 0], dtype=complex),
               1: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
               0: np.array([0, 0, 0, 1], dtype=complex)}
    fid_min = 1.0
    for k, psi in triplet.items():
        joint = dyn.evolve_vacuum_state(res.circuit, psi, 2)
        fid_min = min(fid_min, float(abs(joint[3, k]) ** 2))
    ok = fid_min >= 1 - 1e-8 and abs(res.tau - 1.44) <= 0.01
    report(9, "qubit-oscillator swap", ok,
           f"min fidelity = {fid_min:.10f}, tau = {res.tau:.4f}")


def test_criterion_10_schwinger_map():
    rep = la.schwinger_check(jj_max=8, k_max=10)
    ok = rep.involution_ok and rep.conjugation_dev < 1e-10
    report(10, "two-oscillator relabeling", ok,
           f"involution = {rep.involution_ok}, conjugation dev = "
           f"{rep.conjugation_dev:.2e}, tested = {rep.tested}")

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcforge import cli
from tcforge.cli import main
from tcforge.dynamics import Circuit
from tcforge.sectors import enumerate_sectors, sector_dim


def run(argv):
    return main(argv)


def test_synthesize_cz(tmp_path, capsys):
    rc = run(["synthesize", "--gate", "cz", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "cz.report.json").read_text())
    assert abs(report["tau"] - 2.866) < 0.01
    assert report["residual"] < 1e-8
    circ = Circuit.from_json((tmp_path / "cz.circuit.json").read_text())
    assert circ.n == 2 and len(circ.gates) > 0


def test_synthesize_refuses_phi_for_a_gate_without_one(tmp_path, capsys):
    rc = run(["synthesize", "--gate", "cz", "--phi", "0.3", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: phi applies to uzz and upsiplus only, not to cz\n"
    assert not list(tmp_path.iterdir())


def test_synthesize_phases_identity(tmp_path):
    rc = run(["synthesize", "--phases", "0,0,0", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "phases_0.0_0.0_0.0.report.json").read_text())
    assert report["tau"] == 0.0


def test_synthesize_phases_near_identity(tmp_path):
    # a phase far below 1e-8 once crashed the compiler with a traceback
    rc = run(["synthesize", "--phases", "0,1e-10,0", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "phases_0.0_1e-10_0.0.report.json").read_text())
    assert report["residual"] < 1e-8


def test_synthesize_unknown_gate():
    assert run(["synthesize", "--gate", "toffoli"]) == 1
    assert run(["synthesize"]) == 1


def test_simulate_f_gate_state(tmp_path, capsys):
    from tcforge.synthesis import f_gate
    path = tmp_path / "f.json"
    path.write_text(f_gate().to_json())
    out = tmp_path / "res.json"
    rc = run(["simulate", str(path), "--state", "00", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    amp = {(a["bits"], a["k"]): complex(a["re"], a["im"])
           for a in res["amplitudes"]}
    assert abs(amp[("11", 2)] - 1) < 1e-9
    assert abs(res["interaction_time"] - 0.6124) < 1e-3


def test_simulate_blocks_and_residual(tmp_path):
    from tcforge.synthesis import f_gate
    path = tmp_path / "f.json"
    path.write_text(f_gate().to_json())
    out = tmp_path / "blocks.json"
    rc = run(["simulate", str(path), "--qmax", "3", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["vacuum_residual"] > 0.1  # the relic entangles Psi+
    assert len(res["blocks"]) == 7


def test_simulate_psi_plus_entangles(tmp_path):
    # F rz(θ) F leaves the symmetric one-excitation state entangled with
    # the oscillator
    from tcforge.synthesis import f_gate
    from tcforge.dynamics import Gate
    circ = Circuit(2, f_gate().gates + (Gate("rz", 0.9),) + f_gate().gates)
    path = tmp_path / "frzf.json"
    path.write_text(circ.to_json())
    out = tmp_path / "state.json"
    assert run(["simulate", str(path), "--state", "psi+",
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["oscillator_excited_weight"] > 0.1


def test_simulate_rx_circuit_reports_towers(tmp_path):
    from tcforge.dynamics import apply_circuit, tower_k_max, vacuum_sandwich
    from tcforge.synthesis import ghz_circuit
    circ = ghz_circuit()
    path = tmp_path / "ghz.json"
    path.write_text(circ.to_json())
    out = tmp_path / "towers.json"
    assert run(["simulate", str(path), "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert "blocks" not in res  # rx breaks q
    # the towers hold every |j,m⟩⊗|0⟩ once q_max ≥ n, and only then
    want = vacuum_sandwich(apply_circuit(circ, res["q_max"], "jtower")).residual
    assert res["vacuum_residual"] == want < 1e-12  # GHZ leaves the oscillator in vacuum
    assert run(["simulate", str(path), "--qmax", "1", "--out", str(out)]) == 0
    assert "vacuum_residual" not in json.loads(out.read_text())
    assert [t["jj"] for t in res["towers"]] == [0, 2]
    for t in res["towers"]:
        assert t["k_max"] == tower_k_max(circ, res["q_max"], t["jj"])
        m = np.array(t["matrix"]) @ [1, 1j]
        # the columns of charge q = k + m + n/2 ≤ q_max, in tower order
        want = [[k, mm] for k in range(t["k_max"] + 1)
                for mm in range(t["jj"], -t["jj"] - 2, -2)
                if k + (mm + circ.n) // 2 <= res["q_max"]]
        assert t["columns"] == want
        assert m.shape == ((t["jj"] + 1) * (t["k_max"] + 1), len(want))
        assert np.abs(m.conj().T @ m - np.eye(len(want))).max() < 1e-12
    # column |j=1, m=1⟩⊗|0⟩ = |00⟩⊗|0⟩ goes to (|00⟩ + |11⟩)/√2 ⊗ |0⟩, whose
    # rows are m = ±1 at k = 0
    tower = res["towers"][1]
    column = (np.array(tower["matrix"]) @ [1, 1j])[:, tower["columns"].index([0, 2])]
    ghz = np.zeros(len(column))
    ghz[[0, 2]] = np.sqrt(0.5)
    assert np.abs(np.abs(column) - ghz).max() < 1e-9


def _floats(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in _floats(item)]
    return [obj] if isinstance(obj, float) else []


@pytest.mark.parametrize("n, gates", [
    (4, [("rz", -1.999)]),  # rz-only: charge blocks
    (2, [("rx", 0.8), ("tc", 0.9), ("rz", 0.3)]),  # rx: jtower matrices
], ids=["rz_only", "rx"])
def test_simulate_prints_exact_zeros_as_plus_zero(tmp_path, n, gates):
    # The sign of an exact zero depends on how the arithmetic reached it, so
    # simulate prints every zero as 0.0; both circuits leave -0.0 entries in
    # their blocks.
    from tcforge.dynamics import Gate
    path = tmp_path / "c.json"
    path.write_text(Circuit(n, [Gate(k, p) for k, p in gates]).to_json())
    out = tmp_path / "out.json"
    assert run(["simulate", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    zeros = [x for x in _floats(json.loads(text)) if x == 0]
    assert zeros and all(np.copysign(1.0, x) == 1.0 for x in zeros)
    assert "-0.0," not in text and "-0.0]" not in text


def test_matrix_json_matches_the_element_loop(tmp_path):
    # the element-by-element writer it replaced is the reference: the same
    # floats in the same nesting, in json's indent=2 layout at the depth of a
    # simulate block, with every -0.0 printed as 0.0
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    m[0, 0], m[1, 2], m[2, 3] = -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)
    loop = [[[float(z.real), float(z.imag)] for z in row] for row in m + 0.0]
    text = _dump_text(tmp_path, {"blocks": [{"matrix": cli._matrix_json(m)}]})
    assert text == json.dumps({"blocks": [{"matrix": loop}]}, indent=2) + "\n"
    assert "-0.0" not in text


def test_matrix_json_writes_non_finite_floats_as_json_does(tmp_path):
    m = np.array([[complex(np.nan, np.inf), complex(-np.inf, 0.5)], [1.0, -2.0j]])
    loop = [[[float(z.real), float(z.imag)] for z in row] for row in m + 0.0]
    text = _dump_text(tmp_path, {"matrix": cli._matrix_json(m)})
    assert text == json.dumps({"matrix": loop}, indent=2) + "\n"
    assert "NaN" in text and "-Infinity" in text


def test_dump_refuses_a_string_that_reads_as_its_placeholder(tmp_path):
    with pytest.raises(RuntimeError, match="placeholder"):
        _dump_text(tmp_path, {"matrix": cli._matrix_json(np.eye(2)), "x": "\0matrix\0"})


def _dump_text(tmp_path, obj) -> str:
    cli._dump(obj, tmp_path / "out.json")
    return (tmp_path / "out.json").read_text()


_LAYOUT_CIRCUITS = {
    "charge.json": '{"n": 3, "gates": [{"kind": "tc", "param": 0.7}, '
                   '{"kind": "rz", "param": -1.2}, {"kind": "tc", "param": 1.3}]}',
    "jtower.json": '{"n": 3, "gates": [{"kind": "tc", "param": 0.7}, '
                   '{"kind": "rx", "param": 0.4}, {"kind": "tc", "param": -1.1}]}'}


@pytest.mark.parametrize("argv", [
    ["report"], ["synthesize", "--gate", "cz"], ["simulate", "charge.json"],
    ["simulate", "jtower.json"], ["simulate", "charge.json", "--state", "011"],
    *[["verify", suite] for suite in sorted(cli._SUITES)], ["sectors", "--n", "4"],
], ids=lambda argv: "_".join(a.removesuffix(".json").lstrip("-") for a in argv))
def test_json_output_is_json_own_indented_layout(tmp_path, argv):
    # every JSON file is json.dumps(..., sort_keys=True, indent=2) byte for
    # byte; json reads floats back exactly, so re-encoding what a command
    # wrote pins that layout without a second tree to compare with
    for name, circ in _LAYOUT_CIRCUITS.items():
        (tmp_path / name).write_text(circ)
    argv = [str(tmp_path / a) if a in _LAYOUT_CIRCUITS else a for a in argv]
    synth = argv[0] == "synthesize"
    assert run([*argv, "--out", str(tmp_path / ("" if synth else "out.json"))]) == 0
    text = (tmp_path / ("cz.report.json" if synth else "out.json")).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_simulate_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", str(bad)]) == 1
    assert run(["simulate", str(tmp_path / "missing.json")]) == 1


def test_simulate_rejects_param_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, "gates": [{"kind": "tc", "param": 1%s}]}' % ("0" * 400))
    assert run(["simulate", str(path)]) == 1
    assert "finite real number" in capsys.readouterr().err


def test_simulate_state_above_qmax_fails(tmp_path, capsys):
    path = tmp_path / "tc.json"
    path.write_text('{"n": 2, "gates": [{"kind": "tc", "param": 1.0}]}')
    wide = tmp_path / "tc3.json"
    wide.write_text('{"n": 3, "gates": [{"kind": "tc", "param": 1.0}]}')
    for circ, extra, message in (  # |00⟩⊗|0⟩ has charge 2
            (path, ["--state", "00", "--qmax", "0"], "q = 2 above q_max = 0"),
            (path, ["--state", "00", "--qmax", "1"], "q = 2 above q_max = 1"),
            (wide, ["--state", "psi+"], "state 'psi+' is defined for n = 2 only"),
            (path, ["--state", "0a"], "cannot parse state '0a' for n = 2"),
            (path, ["--state", "000"], "cannot parse state '000' for n = 2")):
        assert run(["simulate", str(circ)] + extra) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert message in out.err


def test_verify_suites_pass(tmp_path):
    assert run(["verify", "phases", "--n", "4"]) == 0
    assert run(["verify", "accidental", "--n", "4", "--qmax", "10",
                "--out", str(tmp_path / "acc.json")]) == 0
    assert run(["verify", "lie", "--n", "2", "--qmax", "4"]) == 0
    assert run(["verify", "schwinger", "--n", "3"]) == 0
    assert run(["verify", "realizability", "--n", "2", "--qmax", "5"]) == 0


def test_verify_schwinger_names_its_fixed_sizes(tmp_path):
    out = tmp_path / "schwinger.json"
    assert run(["verify", "schwinger", "--n", "6", "--qmax", "12",
                "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["scope"] for c in checks] == ["schwinger 2j<=8 k<=10"]


def test_verify_schwinger_reads_tol(tmp_path, monkeypatch):
    # the suite reports --tol in its JSON, so its verdict must use it too
    from tcforge import liealg
    rep = dataclasses.replace(liealg.schwinger_check(8, 10), conjugation_dev=1e-9)
    monkeypatch.setattr(liealg, "schwinger_check", lambda jj_max, k_max: rep)
    for tol, code in (("1e-8", 0), ("1e-10", 2)):
        out = tmp_path / f"schwinger_{tol}.json"
        assert run(["verify", "schwinger", "--tol", tol, "--out", str(out)]) == code
        res = json.loads(out.read_text())
        assert res["tol"] == float(tol) and res["pass"] == (code == 0)
        assert res["checks"][0]["residuals"] == [1e-9]


def test_verify_schwinger_ignores_the_scale_guard(tmp_path):
    # --n and --qmax do not reach the suite, so they cannot exceed desk scale
    out = tmp_path / "schwinger.json"
    assert run(["verify", "schwinger", "--n", "7", "--qmax", "20",
                "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["scope"] for c in checks] == ["schwinger 2j<=8 k<=10"]
    assert checks[0]["pass"]


def test_verify_schwinger_neither_checks_nor_echoes_n_and_qmax(tmp_path):
    # its sizes are fixed, so --n and --qmax are not read, not even validated
    out = tmp_path / "schwinger.json"
    assert run(["verify", "schwinger", "--n", "0", "--qmax", "-1",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n"] is None and report["q_max"] is None and report["pass"]


def test_verify_lie_checks_large_sectors(tmp_path):
    out = tmp_path / "lie.json"
    assert run(["verify", "lie", "--n", "7", "--qmax", "8",
                "--override-scale", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    ranks = [c for c in checks if c["scope"].startswith("rank ")]
    assert len(ranks) == sum(1 for s in enumerate_sectors(7, 8)
                             if sector_dim(s) >= 2)
    big = [c for c in ranks if c["expected"] == 8 ** 2 - 1]
    assert [c["scope"] for c in big] == ["rank q=7 2j=7", "rank q=8 2j=7"]
    assert all(c["pass"] for c in big)


def test_verify_records_its_tolerance(capsys):
    for argv, tol in (([], "1e-08"), (["--tol", "1e-6"], "1e-06")):
        assert run(["verify", "phases", "--n", "2", "--qmax", "2"] + argv) == 0
        out = capsys.readouterr().out
        assert f'"tol": {tol}\n' in out
        assert json.loads(out)["tol"] == float(tol)


def test_verify_scale_guard():
    assert run(["verify", "lie", "--n", "7", "--qmax", "4"]) == 1
    assert run(["verify", "phases", "--n", "7", "--qmax", "4",
                "--override-scale"]) == 0


def test_sectors_csv(tmp_path):
    out = tmp_path / "sectors.csv"
    rc = run(["sectors", "--n", "3", "--qmax", "4", "--format", "csv",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "q,jj,dim,multiplicity,filled,partner_q,partner_jj"
    assert "1,3,2,1,0,4,1" in lines  # the paired n=3 sector


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "phases", "--n", "5", "--out", str(a)])
    run(["verify", "phases", "--n", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    run(["sectors", "--n", "4", "--qmax", "6", "--out", str(c)])
    run(["sectors", "--n", "4", "--qmax", "6", "--out", str(d)])
    assert c.read_bytes() == d.read_bytes()


def test_report_table(tmp_path):
    out = tmp_path / "times.csv"
    rc = run(["report", "--format", "csv", "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",") for line in
                out.read_text().strip().split("\n")[1:])
    assert abs(float(rows["cz"]) - 2.866) < 0.01
    assert abs(float(rows["swap"]) - 1.273) < 0.01
    assert abs(float(rows["iswap"]) - 2.546) < 0.01
    assert abs(float(rows["sqrt_iswap"]) - 2.688) < 0.01


def test_report_json_matches_csv(tmp_path, capsys):
    assert run(["report", "--format", "csv", "--out", str(tmp_path / "t.csv")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "t.csv").read_text().strip().split("\n")[1:]]
    assert run(["report"]) == 0  # json on stdout by default
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["gates", "worst_residual"]
    assert [(g["gate"], g["tau"]) for g in report["gates"]] == [
        (name, float(tau)) for name, tau in rows]
    assert 0 <= report["worst_residual"] < 1e-8


def test_verify_lie_closed_form_check_is_computed(monkeypatch):
    from tcforge import cli, liealg

    def closed(checks):
        return [c for c in checks if c["scope"] == "anharmonicity-closed-form"]

    assert closed(cli._suite_lie(2, 4, 1e-8)) == [
        {"scope": "anharmonicity-closed-form", "pass": True}]
    real = liealg.anharmonicity_check

    def mismatch(idx):
        return dataclasses.replace(real(idx), matches_closed_form=False)

    monkeypatch.setattr(liealg, "anharmonicity_check", mismatch)
    assert closed(cli._suite_lie(2, 4, 1e-8))[0]["pass"] is False


def test_verify_lie_reports_the_rank_it_measured(tmp_path, monkeypatch):
    # a closure one element short must show as rank expected - 1 and fail
    from tcforge import liealg
    real = liealg.lie_closure

    def short(gens, tol):
        basis = real(gens, tol)
        return liealg.OperatorBasis(basis.elements[:-1], basis.rank - 1)

    monkeypatch.setattr(liealg, "lie_closure", short)
    out = tmp_path / "lie.json"
    assert run(["verify", "lie", "--n", "2", "--qmax", "4", "--out", str(out)]) == 2
    ranks = [c for c in json.loads(out.read_text())["checks"]
             if c["scope"].startswith("rank ")]
    assert ranks and all(c["rank"] == c["expected"] - 1 and c["pass"] is False
                         for c in ranks)


def test_bad_counts_fail_with_one_error_line(capsys):
    for argv in (["verify", "phases", "--n", "0"],
                 ["verify", "phases", "--n", "-2"],
                 ["verify", "realizability", "--qmax", "-1"],
                 ["verify", "phases", "--qmax", "-1"],
                 ["sectors", "--n", "0"],
                 ["synthesize", "--phases", "0.1,0.2"]):
        assert run(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    # a bad tolerance is a usage error (1), not a failed check (2); nan and
    # -1 once exited 2 and inf exited 0
    for argv in (["synthesize", "--gate", "cz", "--out", str(tmp_path)],
                 ["verify", "phases"], ["report"]):
        assert run(argv + [f"--tol={tol}"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: --tol must be finite and > 0")
    assert not list(tmp_path.iterdir())  # synthesize wrote nothing


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "bogus"], 1, None),  # argparse usage errors, once exit 2
    (["sectors", "--n", "2", "--qmax", "x"], 1, None),
    (["simulate", "missing.circuit.json"], 1, "error: "),
    (["report", "--out", "missing/r.json"], 1, "error: "),  # once a traceback
    (["synthesize"], 1, "error: synthesize needs --gate or --phases\n"),
    (["--help"], 0, None),
    (["verify", "phases", "--n", "3"], 0, None),
    (["synthesize", "--gate", "cz", "--tol", "1e-20"], 2, None),
])
def test_console_exit_codes(tmp_path, argv, code, err):
    # python -m tcforge.cli runs sys.exit(main()), as the tcforge script does:
    # 0 on success, 1 on a usage or input error, 2 on a failed tolerance
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "tcforge.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if err is not None:  # one error line, from main
        assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1

"""Smoke runs of the command-line scripts under scripts/, and of the
benchmark's hook into tcforge."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/accidental_scan.py", "--n", "3", "--qmax", "5"],
    ["scripts/accidental_scan.py", "--n", "6", "--qmax", "6"],
    ["scripts/gate_times.py"],
], ids=["accidental_scan", "accidental_scan_skipped", "gate_times"])
def test_script_runs(argv):
    proc = _run(argv, "src")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_same_output_of_a_tree_with_itself():
    # scripts/same_output.py compares CLI output of two source trees; a tree
    # against itself must read "same" on every command, and quickly
    start = time.perf_counter()
    proc = _run(["scripts/same_output.py", "src", "src"])
    assert time.perf_counter() - start <= 3.0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[:-1]]
    assert all(r[0] == "same" for r in rows)
    assert {r[1] for r in rows} == {"report", "synthesize", "simulate", "verify", "sectors"}


def test_bench_layers_install():
    # bench/layers.py wraps tcforge functions by name and raises when one is
    # gone, which would break the traced benchmark run (bench/run.py --trace)
    proc = _run(["-c", "import layers, tracer; layers.install(tracer.Tracer())"],
                "src", "bench")
    assert proc.returncode == 0, proc.stderr


def test_bench_compare_prints_every_verdict():
    # every perf claim is read off bench/run.py --compare: one verdict row per
    # workload and end-to-end metric of BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = "bench/baseline/BENCH_d6676e4"
    proc = _run(["bench/run.py", "--compare", f"{base}.json", f"{base}_rerun.json"])
    assert proc.returncode == 0, proc.stderr
    verdicts = ("improved", "unchanged", "worse", "unresolved")
    rows = [line.split() for line in proc.stdout.splitlines()
            if any(f"  {v} (n=" in line for v in verdicts)]
    assert sorted((r[0], r[1]) for r in rows) == sorted(
        (w["name"], m["name"]) for w in spec["workloads"] for m in spec["end_to_end"])


def _run(argv, *paths):
    """Run python with argv from the repo root, with paths on sys.path and
    no bytecode written into them."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*(str(ROOT / d) for d in paths), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)

#!/usr/bin/env python3
"""Check that two tcforge source trees give byte-identical CLI output.

Usage: python scripts/same_output.py OLD_SRC NEW_SRC

Writes seeded circuit files, then runs the fixed command list below once
per tree: one subprocess per tree, with that tree first on sys.path, runs
every command in-process through tcforge.cli.main, each in a fresh working
directory.  The exit code, stdout, stderr and every file a command writes
are compared by digest.  Prints one line per command, "same" or
"different" (naming what differs), and exits 1 if any command differs.
Both trees run with one BLAS thread and write no bytecode.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

SEED = 2024
GATES = ("cz", "swap", "iswap", "sqrt_iswap", "upsiplus")
SUITES = ("accidental", "lie", "phases", "realizability", "schwinger")
# (n, rx gates) of the seeded circuits: the charge backend without rx, jtower with
CIRCUITS = [(n, rx) for n in (2, 3, 4, 6, 8, 12) for rx in (0, 1, 2)]


def commands(circuits: Path) -> list[list[str]]:
    def path(n, rx):
        return str(circuits / f"n{n}_rx{rx}.circuit.json")

    return ([["report"]]
            + [["synthesize", "--gate", g] for g in GATES]
            + [["synthesize", "--phases", "0.3,-1.1,2.0"]]
            + [["simulate", path(n, rx)] for n, rx in CIRCUITS]
            # the charge blocks up to the n = 8 maximum, as the benchmark's CLI call
            + [["simulate", path(8, 0), "--qmax", "16"]]
            + [["simulate", path(2, 1), "--state", "psi+"],
               ["simulate", path(6, 2), "--state", "010011"]]
            + [["verify", s, "--n", "6", "--qmax", "12"] for s in SUITES]
            + [["sectors", "--n", "6"]]
            # odd n, where the spins start at 2j = 1, and the CSV writers
            + [["verify", "phases", "--n", "5"],
               ["verify", "accidental", "--n", "5", "--qmax", "9"],
               ["sectors", "--n", "5", "--format", "csv"],
               ["report", "--format", "csv"]]
            # error output: a missing input file and an --out folder that
            # does not exist, both relative so that both trees print the same
            + [["simulate", "missing.circuit.json"],
               ["report", "--out", "missing/r.json"]])


def write_circuits(folder: Path) -> None:
    """Twenty seeded tc and rz gates per circuit, with rx gates inserted."""
    rng = np.random.default_rng(SEED)
    for n, rx in CIRCUITS:
        kinds = [str(k) for k in rng.choice(["tc", "rz"], 20)]
        for _ in range(rx):
            kinds.insert(int(rng.integers(1, len(kinds) + 1)), "rx")
        gates = [{"kind": k, "param": float(rng.uniform(-2, 2))} for k in kinds]
        (folder / f"n{n}_rx{rx}.circuit.json").write_text(
            json.dumps({"n": n, "gates": gates}))


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_tree(src: Path, circuits: Path, work: Path) -> dict:
    """Digests of every command's output on the tree src, run in this process."""
    sys.path.insert(0, str(src))
    from tcforge import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"tcforge imported from {cli.__file__}, not from {src}")
    digests = {}
    for i, argv in enumerate(commands(circuits)):
        cwd = work / str(i)
        cwd.mkdir()
        os.chdir(cwd)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # the same failure on both trees is "same"
                code = f"{type(exc).__name__}: {exc}"
        digests[" ".join(argv)] = {
            "exit code": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()),
            **{f"file {p.relative_to(cwd)}": _sha(p.read_bytes())
               for p in sorted(cwd.rglob("*")) if p.is_file()}}
    return digests


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = ("import json, sys; from pathlib import Path; sys.path.insert(0, {!r}); "
             "import same_output as so; print(json.dumps(so.run_tree("
             "*map(Path, sys.argv[1:]))))").format(str(Path(__file__).resolve().parent))
    with tempfile.TemporaryDirectory() as tmp:
        circuits = Path(tmp) / "circuits"
        circuits.mkdir()
        write_circuits(circuits)
        procs = []
        for side, src in zip(("old", "new"), argv):
            (Path(tmp) / side).mkdir()
            procs.append(subprocess.Popen(
                [sys.executable, "-c", child, str(Path(src).resolve()), str(circuits),
                 str(Path(tmp) / side)], env=env, stdout=subprocess.PIPE, text=True))
        outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("a tree failed to run its commands", file=sys.stderr)
        return 1
    old, new = (json.loads(o) for o in outs)
    differ = 0
    for key in [*old, *(k for k in new if k not in old)]:  # command order
        a, b = old.get(key, {}), new.get(key, {})
        parts = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        differ += bool(parts)
        label = key.replace(str(circuits) + os.sep, "")
        print(f"{'different' if parts else 'same':<9}  {label}"
              + (f"  ({', '.join(parts)})" if parts else ""))
    print(f"{len(old) - differ} of {len(old)} commands give the same output")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

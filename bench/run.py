"""tcforge benchmark: seeded closed-loop workloads and their metrics.

One run (what BENCHMARK.json's command runs):

    python3 bench/run.py --workload synth --seed 1 --seconds 35 --trace 0

prints every metric with its unit and sample count, then, as the last line,
{"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports
BENCHMARK.json's end-to-end metrics, ``--trace 1`` its per-layer metrics
from a traced run, with the tracing overhead.  Each run also writes a result
file (environment, metrics, op latencies, every failure with its input) to
``bench/out/`` or ``--out``.

Many runs into one file, and a comparison of two such files:

    python3 bench/run.py --collect bench/out/A.json --runs 10
    python3 bench/run.py --compare bench/out/A.json bench/out/B.json

The program is imported from this checkout's ``src/``; paths are resolved
from this file, so the working directory does not matter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def pin_threads() -> dict[str, str]:
    """Fix thread counts before numpy loads: BLAS runs single-threaded and
    the verify suites' pool gets at most two workers, so no more threads
    compute at once than there are CPUs."""
    nproc = len(os.sched_getaffinity(0))
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "TCFORGE_THREADS": str(min(2, nproc))}
    os.environ.update(env)
    return env


def import_program():
    """Import tcforge from ROOT/src and refuse any other copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import tcforge
    except ImportError as exc:
        sys.exit(f"error: cannot import tcforge from {src}: {exc}")
    where = Path(tcforge.__file__).resolve()
    if src not in where.parents:
        sys.exit(f"error: tcforge resolved to {where}, not under {src}")
    return tcforge


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def setup_probe(args) -> int:
    """Set-up as a fresh interpreter pays it: import the program and draw
    the first round of inputs.  Prints seconds."""
    t0 = time.perf_counter()
    import_program()
    import numpy as np
    import workloads
    workloads.WORKLOADS[args.workload]().make_round(np.random.default_rng(args.seed), 0)
    print(repr(time.perf_counter() - t0))
    return 0


def collect(args) -> int:
    """Run every workload --runs times (seeds first-seed, first-seed+1, ...),
    each in a fresh interpreter, and write all results to one file."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    OUT.mkdir(exist_ok=True)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            path = OUT / f"collect-{name}-seed{seed}-trace{args.trace}.json"
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--out", str(path)],
                                  capture_output=True, text=True, timeout=400)
            if proc.returncode != 0:
                sys.exit(f"error: {name} seed {seed} failed: {proc.stderr.strip()}")
            result = json.loads(path.read_text())
            result.pop("op_ms")
            result.pop("spans", None)
            runs.append(result)
            print("\n".join(proc.stdout.strip().splitlines()[:-1]), flush=True)
    Path(args.collect).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print_summary(runs, spec)
    return 0


def load_runs(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if not r["trace"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def print_summary(runs, spec) -> None:
    """Median, quartiles and spread (q3 - q1) / median of each metric."""
    print(f"{'workload':10s} {'metric':14s} {'unit':8s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} runs")
    for wname, group in by_workload(runs).items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in group]
            q1, med, q3 = quartiles(vals)
            print(f"{wname:10s} {m['name']:14s} {m['unit']:8s} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f} {m['bound']:6.3f} "
                  f"{len(vals)}")


def verdict(base: list[dict], new: list[dict], metric: dict) -> str:
    """improved / unchanged / worse / unresolved for one metric."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bv = [r["metrics"][name]["value"] for r in base]
    nv = [r["metrics"][name]["value"] for r in new]
    bq1, bmed, bq3 = quartiles(bv)
    nq1, nmed, nq3 = quartiles(nv)
    all_better = all(sign * (n - b) < 0 for n in nv for b in bv)
    if max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) > bound:
        return "improved" if all_better else "unresolved"
    if sign * (nmed - bmed) / bmed > bound:
        return "worse"
    base_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in base}
    pairs = [(base_by_seed[r["seed"]], r["metrics"][name]["value"])
             for r in new if r["seed"] in base_by_seed]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    won = wins >= 0.9 * len(pairs) if pairs else all_better
    return "improved" if won and sign * (bmed - nmed) > bq3 - bq1 else "unchanged"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    base, new = by_workload(load_runs(path_a)), by_workload(load_runs(path_b))
    print(f"base: {path_a}\nnew:  {path_b}\nratio = new median / base median; "
          f"spread above the bound makes a metric unresolved")
    print(f"{'workload':10s} {'metric':14s} {'unit':8s} "
          f"{'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s} "
          f"{'ratio':>8s} {'bound':>6s}  verdict")
    for wname in base:
        if wname not in new:
            continue
        for m in spec["end_to_end"]:
            aq = quartiles([r["metrics"][m["name"]]["value"] for r in base[wname]])
            bq = quartiles([r["metrics"][m["name"]]["value"] for r in new[wname]])
            print(f"{wname:10s} {m['name']:14s} {m['unit']:8s} "
                  f"{aq[1]:12.6g} [{aq[0]:10.5g}, {aq[2]:10.5g}] "
                  f"{bq[1]:12.6g} [{bq[0]:10.5g}, {bq[2]:10.5g}] "
                  f"{bq[1] / aq[1]:8.4f} {m['bound']:6.3f}  "
                  f"{verdict(base[wname], new[wname], m)} "
                  f"(n={len(base[wname])}/{len(new[wname])})")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("synth", "simulate", "verify"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file (default bench/out/...)")
    p.add_argument("--collect", metavar="FILE",
                   help="run every workload --runs times and write FILE")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.compare or args.collect or args.workload):
        p.error("need --workload, --collect or --compare")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    threads = pin_threads()  # before anything imports numpy
    if args.collect:
        return collect(args)
    if args.setup_probe:
        return setup_probe(args)
    spec = load_spec()
    tcforge = import_program()
    import measure
    return measure.run_once(args, threads, spec, tcforge)


if __name__ == "__main__":
    sys.exit(main())

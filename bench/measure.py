"""One benchmark run: the timed window, its metrics and its result file.

Imported by run.py only after the thread environment is pinned and tcforge
is importable from this checkout, so numpy loads with the pinned settings.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN = BENCH / "run.py"
SETUP_PROBES = 21      # set-up samples per untraced run, spread over the window
HARD_STOP_S = 75.0      # a stream never runs past this, whatever --seconds says


def environment(threads: dict, tcforge) -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    dirty = git("status", "--porcelain") if in_repo else None
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        deps = {}
    # library names, versions and build options; install paths say nothing
    blas = {lib: {k: v for k, v in info.items() if "directory" not in k}
            for lib, info in deps.items()}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if dirty is None else bool(dirty),
        "git_dirty_paths": None if dirty is None else dirty.splitlines()[:50],
        "tcforge_file": str(Path(tcforge.__file__).resolve().relative_to(ROOT)),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter: import plus the first round."""
    proc = subprocess.run([sys.executable, str(RUN), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Stream:
    """One client in a closed loop over rounds of ops, with the workload's
    CLI calls and the set-up probes in between.  Failures are recorded and
    counted; they never stop the run."""

    def __init__(self, workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.side_rng = np.random.default_rng([seed, 1])
        self.tracer = tracer
        self.failures: list[dict] = []
        self.attempted = 0
        self.wrong_output = False

    def _fail(self, where, index, kind, message, given, wrong=False):
        self.wrong_output |= wrong
        self.failures.append({"where": where, "index": index, "type": kind,
                              "message": message, "input": given})

    def _cli_repetition(self, calls) -> float:
        """One repetition of the workload's CLI calls; returns its wall time."""
        total = 0.0
        for call in calls:
            self.attempted += 1
            span = self.tracer.span(call.label) if self.tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    rc, text = workloads.call_cli(call)
            except Exception as exc:
                total += time.perf_counter() - t0
                self._fail("cli", call.label, type(exc).__name__, str(exc), call.argv)
                continue
            total += time.perf_counter() - t0
            try:
                problems = self.wl.check_cli(call, rc, text)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self._fail("cli", call.label, "OutputCheck", "; ".join(problems),
                           call.argv, wrong=True)
        return total

    def run(self, seconds: float, probes: int) -> dict:
        """Run rounds until ``seconds`` have passed and min_ops are done.
        The CLI repetitions and the ``probes`` set-up probes are spread
        evenly over the window, the first of each before any op, so they
        sample the machine at different moments like the ops do."""
        wl = self.wl
        calls = wl.cli_calls(self.side_rng, OUT)
        cli_times, setup_times = [], []
        side = ((cli_times, wl.cli_repeats, lambda: self._cli_repetition(calls)),
                (setup_times, probes, lambda: setup_probe(wl.name, self.seed)))
        latencies, labels, taus, tower_inputs = [], [], [], []
        ok = 0
        index = 0
        start = time.perf_counter()
        while True:
            for done, total, job in side:
                while (len(done) < total and time.perf_counter() - start
                       >= len(done) * seconds / total):
                    done.append(job())
            for op in wl.make_round(self.rng, index):
                self.attempted += 1
                k = len(latencies)
                labels.append(op.label)
                t0 = time.perf_counter()
                try:
                    out = wl.run(op)
                except Exception as exc:
                    latencies.append(time.perf_counter() - t0)
                    self._fail("op", k, type(exc).__name__, str(exc), op.describe())
                    continue
                latencies.append(time.perf_counter() - t0)
                problems = wl.check(op, out)
                if problems:
                    self._fail("op", k, "OutputCheck", "; ".join(problems),
                               op.describe(), wrong=True)
                    continue
                ok += 1
                if k < wl.min_ops:
                    taus.append(wl.tau(op, out))
                    if op.kind in ("jtower", "evolve"):
                        tower_inputs.append((op.args["circuit"], op.args["q_max"]))
            index += 1
            elapsed = time.perf_counter() - start
            if ((elapsed >= seconds and len(latencies) >= wl.min_ops)
                    or elapsed >= HARD_STOP_S):
                break
        for done, total, job in side:
            while len(done) < total:
                done.append(job())
        return {"window_s": time.perf_counter() - start, "cli_times": cli_times,
                "setup_times": setup_times, "latencies": latencies, "labels": labels,
                "ok": ok, "rounds": index, "taus": taus, "tower_inputs": tower_inputs}


def end_to_end(res: dict, stream: Stream, setup: list[float], cli_times: list[float]):
    """End-to-end metric values and their sample counts."""
    lat_ms = [x * 1e3 for x in res["latencies"]]
    p50, p90 = np.percentile(lat_ms, [50, 90])
    values = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "ops_per_s": res["ok"] / sum(res["latencies"]),
        "ok_ratio": 1.0 - len(stream.failures) / stream.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tau_mean": statistics.fmean(res["taus"]) if res["taus"] else 0.0,
        "tau_max": max(res["taus"], default=0.0),
        "cli_s": statistics.median(cli_times),
    }
    counts = {"setup_s": len(setup), "op_ms_p50": len(lat_ms), "op_ms_p90": len(lat_ms),
              "ops_per_s": len(lat_ms), "ok_ratio": stream.attempted, "peak_rss_mb": 1,
              "tau_mean": len(res["taus"]), "tau_max": len(res["taus"]),
              "cli_s": len(cli_times)}
    return values, counts


def run_once(args, threads: dict, spec: dict, tcforge) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    out_path = Path(args.out) if args.out else \
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer, span_cost_us
        tracer = Tracer()
        layers.install(tracer)
    stream = Stream(wl, args.seed, tracer)
    res = stream.run(args.seconds, 0 if tracer else SETUP_PROBES)
    window_s, cli_times, setup = res["window_s"], res["cli_times"], res["setup_times"]

    span_cost = []
    if tracer:
        tracer.restore()
        values = layers.metrics(tracer)
        values["dynamics.tower_dim_sum"] = float(layers.tower_dim_sum(res["tower_inputs"]))
        # the tracer's own cost: spans times the measured cost of one span
        span_cost = span_cost_us()
        overhead_s = len(tracer.spans) * statistics.median(span_cost) * 1e-6
        values["trace.window_s"] = window_s
        values["trace.spans"] = float(len(tracer.spans))
        values["trace.span_cost_us"] = statistics.median(span_cost)
        values["trace.overhead_ratio"] = window_s / (window_s - overhead_s)
        counts = {"trace.span_cost_us": len(span_cost)}
    else:
        values, counts = end_to_end(res, stream, setup, cli_times)
    known = wl.known_defects()  # after the window, untraced
    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        sys.exit(f"error: BENCHMARK.json names metrics this run does not make: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    failed = len(stream.failures)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(threads, tcforge),
        "rounds": res["rounds"], "window_s": window_s,
        "setup_samples_s": setup, "cli_samples_s": cli_times,
        "span_cost_samples_us": span_cost,
        "attempted": stream.attempted, "failed": failed,
        "correct": not stream.wrong_output, "failures": stream.failures,
        "known_defects": known,
        "metrics": metrics, "samples": counts,
        "op_ms": [[label, x * 1e3] for label, x in zip(res["labels"], res["latencies"])],
    }
    if tracer:
        result["spans"] = tracer.dump()
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"tcforge benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  ops={len(res['latencies'])} rounds={res['rounds']} "
          f"window={window_s:.2f}s  attempted={stream.attempted} failed={failed}")
    for name, m in metrics.items():
        n = counts.get(name)
        print(f"  {name:58s} {m['value']:14.6g} {m['unit']:8s}"
              + (f" n={n}" if n is not None else ""))
    for f in stream.failures[:5]:
        print(f"  failure: {f['where']}#{f['index']} {f['type']}: {f['message'][:100]}")
    for k in known:
        print(f"  known defect, outside the stream: {k['input']} "
              f"{k['type']}: {k['message'][:100]}")
    print(f"  result file: {out_path}")
    print(json.dumps({"correct": result["correct"], "attempted": stream.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

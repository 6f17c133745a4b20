#!/usr/bin/env python3
"""Time one hybridmp workload for a fixed number of seconds.

    python3 bench/run.py --workload picard --seed 42 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the layer
boundaries are wrapped (see ``tracer.py``) and it holds the per-layer
metrics instead.  Lines before it explain each value.  The whole run,
including op fingerprints, environment and (when traced) every span, is
written to ``.bench_out/``; suite outputs go to ``.bench_work/`` and are
deleted after each op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tr

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
REQUIRED = ("src/hybridmp/harness.py", "specs/default_lq.json", "configs/lq_solve.json")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
BLAS_THREADS = 1
SEED = 42  # the seed the shipped configs use
SECONDS = 25.0  # run_seconds in BENCHMARK.json
# The end-to-end metrics of an untraced run and their units; the self-test
# checks them against BENCHMARK.json.  The printed report adds error_rate
# and solution quality.
END_TO_END = {"setup_s": "s", "wall_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB"}
TAIL_SAMPLES = 10
# Two ops at least, so that every run compares repeated outputs; after
# that an op starts only if one of median length still ends in time.
MIN_OPS = 2
# Layers a workload must not touch; a span from one means the workload
# no longer measures what it says it does.
SKIPPED_LAYERS = {
    "filter": ("adjoint", "lq"),
    "adjoint": ("lq", "parallel"),
    "picard": ("parallel",),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def default_workers() -> int:
    return min(2, nproc())


def record_name(workload: str, seed: int, workers: int, trace: int, toy: bool = False) -> str:
    return f"{'toy-' if toy else ''}{workload}-seed{seed}-w{workers}-trace{trace}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("filter", "adjoint", "picard"))
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="suite worker threads; default min(2, nproc)")
    parser.add_argument("--toy", action="store_true",
                        help="time the toy-size ops instead (self-test)")
    parser.add_argument("--probe", action="store_true",
                        help="internal: time-to-first-toy-op child process")
    return parser.parse_args(argv)


def cap_threads() -> None:
    """Cap BLAS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import hybridmp from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import hybridmp

    if Path(hybridmp.__file__).resolve().parent != ROOT / "src" / "hybridmp":
        raise ImportError(f"hybridmp resolved to {hybridmp.__file__}, not this checkout")
    import workloads

    return workloads


def probe(workload: str, workers: int) -> int:
    """Child side of the set-up measurement: import, load, one toy op."""
    wl = import_package()
    spec, lq_params = wl.load_inputs(ROOT)
    wl.run_op(wl.TOY[workload], spec, lq_params, SEED, workers, WORK_DIR)
    remove_work_dir()
    return 0


def remove_work_dir() -> None:
    try:
        WORK_DIR.rmdir()
    except OSError:  # absent, or another run is still using it
        pass


def measure_setup(workload: str, workers: int) -> list[float]:
    """Fresh process to the exit after its first toy op, several times.

    A probe that outlives ``PROBE_TIMEOUT_S`` is killed and the run fails.
    The wait blocks instead of polling: ``subprocess.run(timeout=...)``
    polls every 50 ms, which would round every probe up to that step.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--workers", str(workers)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return times


def environment(workers: int, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    sha = "unknown"
    try:
        # The ceiling keeps git from searching directories above the checkout.
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha, "nproc": nproc(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": openblas, "workers": workers,
        "blas_threads": BLAS_THREADS, "seed": seed, "machine": platform.machine(),
    }


def fingerprint(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def compare_with_last(key: str, digest: str) -> str:
    """'unchanged', 'changed' or 'new' against the last run of this seed.

    A changed fingerprint is reported, not failed: a change that alters the
    numbers on purpose shows here while its suites still pass.
    """
    store = OUT_DIR / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    before = known.get(key)
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    if before is None:
        return "new"
    return "unchanged" if before == digest else "changed"


def untraced_rows(workload, steps, ops, setup, peak_rss_mb, wl) -> dict:
    """End-to-end values with unit, sample count and a note, by name."""
    failed = sum(op["failed"] for op in ops)
    walls = sorted(op["wall_s"] for op in ops)
    wall = statistics.median(walls)
    below = len(walls) - TAIL_SAMPLES  # samples at or below the tail percentile
    tail = (f"; p{100 * below / len(walls):.0f} {walls[below - 1]:.4g} s" if below > len(walls) // 2
            else f"; too few ops for a tail percentile with {TAIL_SAMPLES} samples beyond it")
    rows = {
        "setup_s": (statistics.median(setup), "s", len(setup),
                    "median over fresh processes, each to its exit after one toy op"),
        "wall_s": (wall, "s", len(ops), "median over ops" + tail),
        "path_steps_per_s": (wl.path_steps(steps) / wall, "1/s", len(ops),
                             f"{wl.path_steps(steps)} paths x steps per op / wall_s"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "peak resident set of the run"),
        "error_rate": (failed / len(ops), "1", len(ops), f"{failed} of {len(ops)} ops failed"),
    }
    done = [op for op in ops if op["metrics"]]
    for name, rec in (wl.quality(workload, done[0]).items() if done else ()):
        rows[name] = (rec["value"], "1", len(done),
                      f"checked: {rec['comparator']} {rec['tolerance']:.6g}")
    return {name: dict(zip(("value", "unit", "samples", "note"), row))
            for name, row in rows.items()}


def traced_rows(workload, tracer, ops) -> tuple[dict, list[str]]:
    """Per-layer values by name, and what the trace shows to be wrong."""
    layer = tr.layer_metrics(tracer, [op["wall_s"] for op in ops],
                             [op["bytes_written"] for op in ops])
    rows = {name: {"value": layer[name], "unit": unit, "samples": len(ops),
                   "note": "median over ops"}
            for name, unit in tr.LAYER_METRICS.items()}
    problems = tr.nesting_errors(tracer.spans)
    problems += [f"span #{sid} has self time {t:.3g} s < 0"
                 for sid, t in tr.self_times(tracer.spans).items() if t < -1e-6]
    ran = set(SKIPPED_LAYERS[workload]) & tr.layers_seen(tracer.spans)
    if ran:
        problems.append(f"layers {sorted(ran)} ran but {workload} must skip them")
    return rows, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a hybridmp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workers = args.workers if args.workers > 0 else default_workers()
    cap_threads()
    if args.probe:
        return probe(args.workload, workers)

    setup = measure_setup(args.workload, workers) if args.trace == 0 else []
    wl = import_package()
    spec, lq_params = wl.load_inputs(ROOT)
    steps = (wl.TOY if args.toy else wl.WORKLOADS)[args.workload]
    wl.run_op(wl.TOY[args.workload], spec, lq_params, args.seed, workers, WORK_DIR)

    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = []
    start = time.perf_counter()
    try:
        while len(ops) < MIN_OPS or (time.perf_counter() - start
                                     + statistics.median(op["wall_s"] for op in ops)
                                     <= args.seconds):
            if tracer:
                tracer.op = len(ops)
            ops.append(wl.run_op(steps, spec, lq_params, args.seed, workers, WORK_DIR))
    finally:
        if tracer:
            tracer.op = None
            tracer.uninstall()
        remove_work_dir()
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"op {i} failed: exit codes {op['codes']} {op['errors']}"
                for i, op in enumerate(ops) if op["failed"]]
    digests = [fingerprint(op["outputs"]) for op in ops]
    if len(set(digests)) > 1:
        problems.append("repeated ops with the same inputs wrote different outputs")
    if tracer:
        rows, trace_problems = traced_rows(args.workload, tracer, ops)
        problems += trace_problems
        names = tr.LAYER_METRICS
    else:
        rows = untraced_rows(args.workload, steps, ops, setup, peak_rss_mb, wl)
        names = END_TO_END
    OUT_DIR.mkdir(exist_ok=True)
    status = ("traced runs are not compared" if tracer else
              compare_with_last(f"{'toy-' if args.toy else ''}{args.workload}-seed{args.seed}",
                                digests[0])
              + " since the last untraced run of this seed")

    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} ops in {elapsed:.1f} s, "
          f"workers {workers}, BLAS threads {BLAS_THREADS}, nproc {nproc()}, trace {args.trace}")
    for name, row in rows.items():
        print(f"  {name:42s} {row['value']:<12.6g} {row['unit']:5s} n={row['samples']:<3d} "
              f"{row['note']}")
    print(f"  outputs {digests[0][:16]}: {status}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "toy": args.toy,
        "environment": environment(workers, args.seed), "setup_s": setup,
        "ops": ops, "fingerprint": digests[0], "outputs": status,
        "problems": problems, "rows": rows,
    }
    name = record_name(args.workload, args.seed, workers, args.trace, args.toy)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT_DIR / f"{name}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    metrics = {n: {"value": rows[n]["value"], "unit": rows[n]["unit"]} for n in names}
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(op["failed"] for op in ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

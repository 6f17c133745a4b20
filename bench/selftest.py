#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale; takes about half a minute.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit
and that the benchmark's code names the same metrics, that child spans
nest inside their parent's interval (also across worker threads) and self
times are >= 0, that each workload skips the layers it should, that an op
whose spec fails ``validate_spec`` (exit 2) raises ``error_rate``, that
uninstalling the tracer restores the package, and that a Picard solve
that raises ``NonConvergence`` still reports its iterations.
Exit code 0 iff every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import tracer as tr

FAILURES: list[str] = []
CHECKS = [0]


def check(ok: bool, what: str) -> None:
    CHECKS[0] += 1
    if not ok:
        print(f"FAIL {what}")
        FAILURES.append(what)


def check_self_time() -> None:
    spans = [tr.Span(1, "a", 0.0, 10.0, None, 0), tr.Span(2, "b", 1.0, 3.0, 1, 0),
             tr.Span(3, "c", 2.0, 5.0, 1, 0), tr.Span(4, "d", 8.0, 12.0, 1, 0)]
    selfs = tr.self_times(spans)
    check(abs(selfs[1] - 4.0) < 1e-12, "self time subtracts the union of children, clipped")
    check(len(tr.nesting_errors(spans)) == 1, "a child outside its parent is reported")


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one list in BENCHMARK.json."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def check_declared() -> None:
    check(run.END_TO_END == declared("end_to_end"),
          "run.END_TO_END matches end_to_end in BENCHMARK.json")
    check(tr.LAYER_METRICS == declared("per_layer"),
          "tracer.LAYER_METRICS matches per_layer in BENCHMARK.json")


def check_run(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--toy",
           "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    label = f"{workload} trace {trace}"
    check(proc.returncode == 0, f"{label}: exit 0")
    if proc.returncode != 0:
        print(proc.stderr)
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    names = declared("per_layer" if trace else "end_to_end")
    check(sorted(result["metrics"]) == sorted(names), f"{label}: every metric reported")
    for name, rec in result["metrics"].items():
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [name]]
        ok = (isinstance(rec["value"], (int, float)) and rec["unit"] == names[name]
              and len(printed) == 1 and printed[0].split()[2] == rec["unit"])
        check(bool(ok), f"{label}: {name} printed with unit {rec['unit']!r}")
    workers = run.default_workers()
    record = json.loads((run.OUT_DIR / f"{run.record_name(workload, run.SEED, workers, trace, toy=True)}.json")
                        .read_text())
    check(result["failed"] == sum(op["failed"] for op in record["ops"]),
          f"{label}: failed counts the ops with a non-zero exit")
    check(result["correct"] and not record["problems"],
          f"{label}: ops pass, spans nest, self times >= 0, skipped layers absent "
          f"{record['problems']}")


def check_in_process(wl) -> None:
    import hybridmp.pathsim as pathsim
    from hybridmp.model import LQSpec, zero_policy

    spec, lq_params = wl.load_inputs(run.ROOT)
    original = pathsim.run_blocks
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        problem = spec.to_problem_spec()
        pathsim.estimate_cost(problem, pathsim.TimeGrid(1.0, 20), 300, 7,
                              policy=zero_policy(), block_size=100, workers=2)
    finally:
        tracer.uninstall()
    blocks = [s for s in tracer.spans if s.name == "parallel.block"]
    parent = next(s for s in tracer.spans if s.name == "parallel.run_blocks")
    check(len(blocks) == 3 and all(b.parent == parent.id for b in blocks),
          "threaded blocks are children of their run_blocks span")
    check(not tr.nesting_errors(tracer.spans)
          and min(tr.self_times(tracer.spans).values()) >= 0, "threaded spans nest")
    check(pathsim.run_blocks is original and not tracer._patched, "uninstall restores the package")

    import hybridmp.lq as lq
    from hybridmp.errors import NonConvergence

    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        lq.solve_lq(problem, pathsim.TimeGrid(1.0, 20), n_paths=100, seed=7, tol=0.0, max_iter=2)
        raised = False
    except NonConvergence:
        raised = True
    finally:
        tracer.op = None
        tracer.uninstall()
    layer = tr.layer_metrics(tracer, [1.0], [0])
    check(raised and layer["lq.iterations"] == 2,
          f"a solve that raises NonConvergence reports its iterations ({layer['lq.iterations']})")

    doc = spec.to_json()
    doc["b1"] = 1e5  # |b_v| beyond validate_spec's derivative bound
    bad = LQSpec.from_json(doc)
    good_op = wl.run_op(wl.TOY["adjoint"], spec, lq_params, 42, 1, run.WORK_DIR)
    bad_op = wl.run_op(wl.TOY["adjoint"], bad, lq_params, 42, 1, run.WORK_DIR)
    check(bad_op["codes"] == {"mp-check": 2} and bad_op["failed"], "invalid spec exits 2")
    rows = run.untraced_rows("adjoint", wl.TOY["adjoint"], [good_op, bad_op], [1.0], 1.0, wl)
    check(rows["error_rate"]["value"] == 0.5, "an op that exits 2 raises error_rate")


def main() -> int:
    run.cap_threads()
    wl = run.import_package()
    check_declared()
    check_self_time()
    check_in_process(wl)
    for workload in ("filter", "adjoint", "picard"):
        for trace in (0, 1):
            check_run(workload, trace)
    run.remove_work_dir()
    print(f"{len(FAILURES)} of {CHECKS[0]} checks failed" if FAILURES
          else f"all {CHECKS[0]} checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
